package sched

import (
	"math"
	"testing"
)

// fig4Build returns the Figure 4 step program: thread1 runs `prefix`
// steps then reads x; thread2 writes x then runs a short tail. pred is
// "the read saw the pre-write value" (the bug).
func fig4Build(prefix, tail int) func() ([]*Thread, func() bool) {
	return func() ([]*Thread, func() bool) {
		x := 0
		sawZero := false
		t1 := NewThread("t1")
		for i := 0; i < prefix; i++ {
			t1.AddStep(func() {})
		}
		t1.AddStep(func() { sawZero = x == 0 })
		t2 := NewThread("t2")
		t2.AddStep(func() { x = 1 })
		for i := 0; i < tail; i++ {
			t2.AddStep(func() {})
		}
		return []*Thread{t1, t2}, func() bool { return sawZero }
	}
}

func TestPCTRunsAllSteps(t *testing.T) {
	ran := 0
	a := NewThread("a", func() { ran++ }, func() { ran++ })
	b := NewThread("b", func() { ran++ })
	trace := PCT(1, 2, a, b)
	if ran != 3 || len(trace) != 3 {
		t.Fatalf("ran=%d trace=%v", ran, trace)
	}
	if !a.Done() || !b.Done() {
		t.Fatal("threads not completed")
	}
}

func TestPCTDeterministicPerSeed(t *testing.T) {
	mk := func() []*Thread {
		return []*Thread{
			NewThread("a", func() {}, func() {}, func() {}),
			NewThread("b", func() {}, func() {}),
		}
	}
	tr1 := PCT(42, 3, mk()...)
	tr2 := PCT(42, 3, mk()...)
	if len(tr1) != len(tr2) {
		t.Fatal("same seed different lengths")
	}
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, tr1, tr2)
		}
	}
}

func TestPCTPriorityScheduling(t *testing.T) {
	// With depth 1 there are no change points: one thread runs to
	// completion before the other starts.
	a := NewThread("a", func() {}, func() {}, func() {})
	b := NewThread("b", func() {}, func() {}, func() {})
	trace := PCT(7, 1, a, b)
	switches := 0
	for i := 1; i < len(trace); i++ {
		if trace[i] != trace[i-1] {
			switches++
		}
	}
	if switches != 1 {
		t.Fatalf("depth-1 PCT should context-switch exactly once, got %d (%v)", switches, trace)
	}
}

func TestPCTGuarantee(t *testing.T) {
	if got := PCTGuarantee(2, 100, 1); got != 0.5 {
		t.Fatalf("d=1 guarantee = %v", got)
	}
	if got := PCTGuarantee(2, 100, 2); math.Abs(got-0.005) > 1e-12 {
		t.Fatalf("d=2 guarantee = %v", got)
	}
	if PCTGuarantee(0, 10, 1) != 0 {
		t.Fatal("degenerate guarantee nonzero")
	}
}

func TestPCTBeatsRandomOnDeepOrderingBug(t *testing.T) {
	// Figure 4 shape: the bug needs thread1's late read to beat
	// thread2's first step. Uniform random scheduling finds it with
	// probability (1/2)^(prefix+1) — hopeless for prefix 60. PCT with
	// depth 1 finds it whenever thread1 draws the higher priority: ~1/2.
	const prefix, tail, runs = 60, 5, 400
	build := fig4Build(prefix, tail)

	randomHits := CountSchedules(0, runs, build)
	pctHits := CountPCT(0, runs, 1, build)

	if randomHits > runs/50 {
		t.Fatalf("random scheduler found the deep bug %d/%d times — workload too easy", randomHits, runs)
	}
	if pctHits < runs/3 || pctHits > 2*runs/3 {
		t.Fatalf("PCT depth-1 hit rate %d/%d, want ~1/2", pctHits, runs)
	}
	// The PCT empirical rate must respect its own lower bound.
	k := prefix + 1 + tail + 1
	if float64(pctHits)/float64(runs) < PCTGuarantee(2, k, 1)/2 {
		t.Fatalf("PCT below guarantee: %d/%d < %v", pctHits, runs, PCTGuarantee(2, k, 1))
	}
}
