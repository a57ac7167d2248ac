package syncmap

import (
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
)

func TestMapBasics(t *testing.T) {
	m := NewMap("m")
	m.Put("a", 1)
	m.Put("b", 2)
	m.Put("a", 3) // update keeps order
	if len(m.m) != 2 {
		t.Fatalf("Size = %d", len(m.m))
	}
	if v, ok := m.Get("a"); !ok || v != 3 {
		t.Fatalf("Get(a) = %d %v", v, ok)
	}
	if !m.ContainsKey("b") || m.ContainsKey("c") {
		t.Fatal("ContainsKey broken")
	}
	keys := m.order
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("insertion order broken: %v", keys)
	}
	m.Remove("a")
	if m.ContainsKey("a") || len(m.m) != 1 {
		t.Fatal("Remove broken")
	}
	if got := m.order; len(got) != 1 || got[0] != "b" {
		t.Fatalf("order after remove: %v", got)
	}
}

func TestPutAllSequential(t *testing.T) {
	a, b := NewMap("a"), NewMap("b")
	a.Put("x", 1)
	b.Put("y", 2)
	b.Put("z", 3)
	a.PutAll(b, nil)
	if len(a.m) != 3 {
		t.Fatalf("PutAll size = %d", len(a.m))
	}
	if v, _ := a.Get("z"); v != 3 {
		t.Fatalf("PutAll value = %d", v)
	}
}

func TestAtomicityBreakpointReproducesStaleRead(t *testing.T) {
	for i := 0; i < 10; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Bug: Atomicity, Breakpoint: true, Timeout: 500 * time.Millisecond})
		if r.Status != appkit.TestFail {
			t.Fatalf("run %d: status = %v (want test fail): %s", i, r.Status, r)
		}
		if !r.BPHit {
			t.Fatalf("run %d: stale read without breakpoint hit", i)
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
	// Measured rate (EXPERIMENTS.md, 300 runs): 9/300 at GOMAXPROCS=2 and
	// 6/300 at 1. The test fails at 6 of 20 runs: 2e-5 at 9/300.
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
