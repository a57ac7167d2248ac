package raytracer

import (
	"math"
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
)

func TestVecOps(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, 5, 6}
	if a.Add(b) != (Vec{5, 7, 9}) || b.Sub(a) != (Vec{3, 3, 3}) {
		t.Fatal("Add/Sub broken")
	}
	if a.Dot(b) != 32 {
		t.Fatalf("Dot = %v", a.Dot(b))
	}
	n := Vec{3, 0, 4}.Norm()
	if math.Abs(n.Dot(n)-1) > 1e-12 {
		t.Fatalf("Norm not unit: %v", n)
	}
	if (Vec{}).Norm() != (Vec{}) {
		t.Fatal("zero Norm should be zero")
	}
	if a.Scale(2) != (Vec{2, 4, 6}) {
		t.Fatal("Scale broken")
	}
}

func TestSphereIntersect(t *testing.T) {
	s := Sphere{Center: Vec{0, 0, 5}, Radius: 1}
	// Ray straight at the sphere hits at t=4.
	if got := s.Intersect(Vec{0, 0, 0}, Vec{0, 0, 1}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("t = %v, want 4", got)
	}
	// Ray away from the sphere misses.
	if got := s.Intersect(Vec{0, 0, 0}, Vec{0, 0, -1}); !math.IsInf(got, 1) {
		t.Fatalf("t = %v, want +Inf", got)
	}
	// Ray from inside hits the far wall.
	if got := s.Intersect(Vec{0, 0, 5}, Vec{0, 0, 1}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("t = %v, want 1", got)
	}
}

func TestSequentialRenderDeterministicAndPlausible(t *testing.T) {
	sc := DefaultScene(32, 24)
	a := sc.RenderSequential()
	b := sc.RenderSequential()
	if a != b {
		t.Fatalf("render not deterministic: %+v vs %+v", a, b)
	}
	if a.RowsDone != 24 {
		t.Fatalf("RowsDone = %d", a.RowsDone)
	}
	if a.Checksum <= 0 || a.RaysTraced < int64(32*24) {
		t.Fatalf("implausible stats: %+v", a)
	}
	if a.ShadowHits == 0 {
		t.Fatal("scene has no shadows — shadow-ray path untested")
	}
}

func TestParallelCleanMatchesReference(t *testing.T) {
	// Without a breakpoint the racy statistics can still lose an update.
	// Measured rate (EXPERIMENTS.md, 300 runs): 6/300 at GOMAXPROCS=2,
	// 0/300 at 1. The test fails at 3 of 5 runs: 8e-5 at 6/300.
	e := core.NewEngine()
	e.SetEnabled(false)
	okRuns := 0
	for i := 0; i < 5; i++ {
		if Run(Config{Engine: e, Width: 32, Height: 24}).Status == appkit.OK {
			okRuns++
		}
	}
	if okRuns < 3 {
		t.Fatalf("clean parallel render failed validation %d/5 times", 5-okRuns)
	}
}

func TestAllFourRacesReproduce(t *testing.T) {
	for _, bug := range []Bug{Race1, Race2, Race3, Race4} {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Bug: bug, Breakpoint: true,
			Timeout: 200 * time.Millisecond, Width: 32, Height: 24})
		if r.Status != appkit.TestFail || !r.BPHit {
			t.Fatalf("bug %v: %s", bug, r)
		}
	}
}

func TestBoundRespected(t *testing.T) {
	e := core.NewEngine()
	Run(Config{Engine: e, Bug: Race3, Breakpoint: true,
		Timeout: 100 * time.Millisecond, Bound: 2, Width: 32, Height: 24})
	if hits := e.Stats(BPRace3).Hits(); hits > 2 {
		t.Fatalf("bound=2 exceeded: %d", hits)
	}
}
