package synclist

import (
	"strings"
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
)

func TestListBasics(t *testing.T) {
	l := NewList("l")
	l.Add(1)
	l.Add(2)
	l.Add(3)
	if l.Size() != 3 || l.Get(0) != 1 || l.Get(2) != 3 {
		t.Fatalf("list contents wrong: %v", l.items)
	}
	l.Clear()
	if l.Size() != 0 {
		t.Fatal("Clear broken")
	}
}

func TestGetOutOfRangePanics(t *testing.T) {
	l := NewList("l")
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "IndexOutOfBounds") {
			t.Fatalf("panic = %v", p)
		}
	}()
	l.Get(0)
}

func TestAddAllSequential(t *testing.T) {
	a, b := NewList("a"), NewList("b")
	a.Add(1)
	b.Add(2)
	b.Add(3)
	a.AddAll(b, nil)
	if a.Size() != 3 || a.Get(2) != 3 {
		t.Fatalf("AddAll: %v", a.items)
	}
}

func TestAtomicityBreakpointReproducesException(t *testing.T) {
	for i := 0; i < 10; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Bug: Atomicity, Breakpoint: true, Timeout: 500 * time.Millisecond})
		if r.Status != appkit.Exception {
			t.Fatalf("run %d: status = %v (want exception): %s", i, r.Status, r)
		}
		if !r.BPHit {
			t.Fatalf("run %d: exception without breakpoint hit", i)
		}
	}
}

func TestDeadlockBreakpointReproducesStall(t *testing.T) {
	for i := 0; i < 5; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Bug: Deadlock, Breakpoint: true,
			Timeout: 500 * time.Millisecond, StallAfter: 300 * time.Millisecond})
		if r.Status != appkit.Stall {
			t.Fatalf("run %d: status = %v (want stall): %s", i, r.Status, r)
		}
		if !r.BPHit {
			t.Fatalf("run %d: stall without breakpoint hit", i)
		}
	}
}

func TestWithoutBreakpointMostlyOK(t *testing.T) {
	// Measured rate (EXPERIMENTS.md, 300 runs): 10/300 at GOMAXPROCS=2 and
	// 4/300 at 1. The test fails at 6 of 20 runs: 4e-5 at 10/300.
	bugs := 0
	for i := 0; i < 20; i++ {
		e := core.NewEngine()
		e.SetEnabled(false)
		if Run(Config{Engine: e, Bug: Atomicity, StallAfter: 300 * time.Millisecond}).Status.Buggy() {
			bugs++
		}
	}
	if bugs > 5 {
		t.Fatalf("atomicity bug manifested %d/20 without breakpoint", bugs)
	}
}
