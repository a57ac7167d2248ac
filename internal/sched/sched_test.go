package sched

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestAllStepsRunInOrderPerThread(t *testing.T) {
	var got []int
	a := NewThread("a",
		func() { got = append(got, 1) },
		func() { got = append(got, 2) },
		func() { got = append(got, 3) },
	)
	trace := New(42).Run(a)
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("steps out of order: %v", got)
	}
	if !reflect.DeepEqual(trace, []string{"a", "a", "a"}) {
		t.Fatalf("trace = %v", trace)
	}
}

func TestSameSeedSameTrace(t *testing.T) {
	build := func() []*Thread {
		return []*Thread{
			NewThread("a", func() {}, func() {}, func() {}),
			NewThread("b", func() {}, func() {}, func() {}),
		}
	}
	t1 := New(7).Run(build()...)
	t2 := New(7).Run(build()...)
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("same seed, different traces:\n%v\n%v", t1, t2)
	}
}

func TestDifferentSeedsEventuallyDiffer(t *testing.T) {
	build := func() []*Thread {
		return []*Thread{
			NewThread("a", func() {}, func() {}, func() {}, func() {}),
			NewThread("b", func() {}, func() {}, func() {}, func() {}),
		}
	}
	base := New(0).Run(build()...)
	for seed := int64(1); seed < 50; seed++ {
		if !reflect.DeepEqual(base, New(seed).Run(build()...)) {
			return
		}
	}
	t.Fatal("50 seeds produced identical interleavings")
}

func TestInterleavingPreservesPerThreadOrder(t *testing.T) {
	f := func(seed int64, na, nb uint8) bool {
		la, lb := int(na%8)+1, int(nb%8)+1
		var seqA, seqB []int
		a, b := NewThread("a"), NewThread("b")
		for i := 0; i < la; i++ {
			i := i
			a.AddStep(func() { seqA = append(seqA, i) })
		}
		for i := 0; i < lb; i++ {
			i := i
			b.AddStep(func() { seqB = append(seqB, i) })
		}
		trace := New(seed).Run(a, b)
		if len(trace) != la+lb {
			return false
		}
		for i := range seqA {
			if seqA[i] != i {
				return false
			}
		}
		for i := range seqB {
			if seqB[i] != i {
				return false
			}
		}
		return a.Done() && b.Done()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountSchedules(t *testing.T) {
	// Program: a writes x=1, b reads x; pred: read saw 0 (b's read ran
	// before a's write). Over many seeds both orders must occur.
	hits := CountSchedules(0, 200, func() ([]*Thread, func() bool) {
		x := 0
		seen := -1
		a := NewThread("a", func() { x = 1 })
		b := NewThread("b", func() { seen = x })
		return []*Thread{a, b}, func() bool { return seen == 0 }
	})
	if hits == 0 || hits == 200 {
		t.Fatalf("hits = %d; expected both interleavings across seeds", hits)
	}
}

func TestTraceAndString(t *testing.T) {
	s := New(1)
	s.Run(NewThread("x", func() {}))
	if got := s.trace; len(got) != 1 || got[0] != "x" {
		t.Fatalf("Trace = %v", got)
	}
	if s.String() != "[x]" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestRunResetsThreads(t *testing.T) {
	n := 0
	a := NewThread("a", func() { n++ })
	s := New(3)
	s.Run(a)
	s.Run(a)
	if n != 2 {
		t.Fatalf("thread not reset between runs: n = %d", n)
	}
}
