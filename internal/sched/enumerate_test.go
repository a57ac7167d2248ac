package sched

import (
	"math"
	"testing"
)

// binom computes C(n, k) for small arguments.
func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	out := 1
	for i := 0; i < k; i++ {
		out = out * (n - i) / (i + 1)
	}
	return out
}

func TestEnumerateCountsAllInterleavings(t *testing.T) {
	// Two threads with a and b steps have C(a+b, a) interleavings.
	for _, tc := range []struct{ a, b int }{{1, 1}, {2, 3}, {4, 4}} {
		visited, _ := enumerate(0, func() ([]*Thread, func() bool) {
			t1, t2 := NewThread("a"), NewThread("b")
			for i := 0; i < tc.a; i++ {
				t1.AddStep(func() {})
			}
			for i := 0; i < tc.b; i++ {
				t2.AddStep(func() {})
			}
			return []*Thread{t1, t2}, func() bool { return true }
		})
		if want := binom(tc.a+tc.b, tc.a); visited != want {
			t.Fatalf("(%d,%d): visited %d, want %d", tc.a, tc.b, visited, want)
		}
	}
}

func TestEnumerateSatisfiedFraction(t *testing.T) {
	// Figure 4 shape with prefix 2: read-before-write holds only in the
	// schedule where all of t1's 3 steps precede t2's single step —
	// 1 of the C(4,3)=4 interleavings.
	visited, satisfied := enumerate(0, fig4Build(2, 0))
	if visited != 4 || satisfied != 1 {
		t.Fatalf("visited=%d satisfied=%d, want 4 and 1", visited, satisfied)
	}
}

func TestEnumerateLimit(t *testing.T) {
	visited, _ := enumerate(3, func() ([]*Thread, func() bool) {
		t1 := NewThread("a", func() {}, func() {}, func() {})
		t2 := NewThread("b", func() {}, func() {}, func() {})
		return []*Thread{t1, t2}, func() bool { return true }
	})
	if visited != 3 {
		t.Fatalf("visited = %d, want 3 (limited)", visited)
	}
}

func TestRandomMeasureMatchesClosedForm(t *testing.T) {
	// For the Figure 4 program with prefix p and no tail, the random
	// scheduler satisfies read-before-write iff it picks thread1 for
	// the first p+1 decisions: probability (1/2)^(p+1).
	for p := 0; p <= 4; p++ {
		got := randomMeasure(fig4Build(p, 0))
		want := math.Pow(0.5, float64(p+1))
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("prefix %d: measure = %v, want %v", p, got, want)
		}
	}
}

func TestRandomMeasureMatchesEmpirical(t *testing.T) {
	// The exact measure must agree with the sampling scheduler within
	// binomial noise.
	build := fig4Build(3, 2)
	exact := randomMeasure(build)
	const runs = 4000
	hits := CountSchedules(11, runs, build)
	emp := float64(hits) / float64(runs)
	sd := math.Sqrt(exact * (1 - exact) / runs)
	if math.Abs(emp-exact) > 5*sd+0.01 {
		t.Fatalf("empirical %v vs exact %v (sd %v)", emp, exact, sd)
	}
}

func TestRandomMeasureTotalsOne(t *testing.T) {
	// With pred == always true, the measure must be exactly 1.
	got := randomMeasure(func() ([]*Thread, func() bool) {
		t1 := NewThread("a", func() {}, func() {})
		t2 := NewThread("b", func() {}, func() {}, func() {})
		return []*Thread{t1, t2}, func() bool { return true }
	})
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("total measure = %v", got)
	}
}

// fig4Build is shared with pct_test.go.
