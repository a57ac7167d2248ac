package syncset

import (
	"strings"
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
)

// has reports membership without the monitor, for single-goroutine
// checks.
func has(s *Set, v int64) bool {
	_, ok := s.m[v]
	return ok
}

func TestSetBasics(t *testing.T) {
	s := NewSet("s")
	if !s.Add(1) || s.Add(1) {
		t.Fatal("Add dedup broken")
	}
	s.Add(2)
	if !has(s, 1) || has(s, 3) || s.Size() != 2 {
		t.Fatal("membership/Size broken")
	}
	if !s.Remove(1) || s.Remove(1) || s.Size() != 1 {
		t.Fatal("Remove broken")
	}
}

func TestCopyInto(t *testing.T) {
	s := NewSet("s")
	s.Add(3)
	s.Add(1)
	s.Add(2)
	dst := make([]int64, 3)
	s.CopyInto(dst)
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatalf("CopyInto = %v", dst)
	}
}

func TestCopyIntoTooSmallPanics(t *testing.T) {
	s := NewSet("s")
	s.Add(1)
	s.Add(2)
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "ArrayIndexOutOfBounds") {
			t.Fatalf("panic = %v", p)
		}
	}()
	s.CopyInto(make([]int64, 1))
}

func TestAddAllSequential(t *testing.T) {
	a, b := NewSet("a"), NewSet("b")
	a.Add(1)
	b.Add(2)
	b.Add(3)
	a.AddAll(b, nil)
	if a.Size() != 3 || !has(a, 3) {
		t.Fatal("AddAll broken")
	}
}

func TestAtomicityBreakpointReproducesException(t *testing.T) {
	for i := 0; i < 10; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Bug: Atomicity, Breakpoint: true, Timeout: 500 * time.Millisecond})
		if r.Status != appkit.Exception || !r.BPHit {
			t.Fatalf("run %d: %s", i, r)
		}
		if !strings.Contains(r.Detail, "ArrayIndexOutOfBounds") {
			t.Fatalf("run %d: wrong exception %q", i, r.Detail)
		}
	}
}

func TestDeadlockBreakpointReproducesStall(t *testing.T) {
	for i := 0; i < 5; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Bug: Deadlock, Breakpoint: true,
			Timeout: 500 * time.Millisecond, StallAfter: 300 * time.Millisecond})
		if r.Status != appkit.Stall || !r.BPHit {
			t.Fatalf("run %d: %s", i, r)
		}
	}
}

func TestWithoutBreakpointMostlyOK(t *testing.T) {
	// Measured rate (EXPERIMENTS.md, 300 runs): 3/300 at GOMAXPROCS=2 and
	// 6/300 at 1. The test fails at 6 of 20 runs: 2e-6 at 6/300.
	bugs := 0
	for i := 0; i < 20; i++ {
		e := core.NewEngine()
		e.SetEnabled(false)
		if Run(Config{Engine: e, Bug: Atomicity}).Status.Buggy() {
			bugs++
		}
	}
	if bugs > 5 {
		t.Fatalf("bug manifested %d/20 without breakpoint", bugs)
	}
}
