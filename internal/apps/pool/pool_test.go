package pool

import (
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
)

func quietCfg() *Config {
	e := core.NewEngine()
	e.SetEnabled(false)
	return &Config{Engine: e}
}

func TestBorrowReturnBasics(t *testing.T) {
	p := NewPool(2, quietCfg())
	a := p.Borrow()
	b := p.Borrow()
	if a == nil || b == nil || a == b {
		t.Fatal("borrow broken")
	}
	if p.active != 2 || len(p.free) != 0 {
		t.Fatalf("active=%d free=%d", p.active, len(p.free))
	}
	p.Return(a)
	if p.active != 1 || len(p.free) != 1 {
		t.Fatalf("after return: active=%d free=%d", p.active, len(p.free))
	}
	c := p.Borrow()
	if c != a {
		t.Fatal("returned object not reused")
	}
}

func TestBorrowBlocksUntilReturn(t *testing.T) {
	p := NewPool(1, quietCfg())
	a := p.Borrow()
	got := make(chan *Object, 1)
	go func() { got <- p.Borrow() }()
	select {
	case <-got:
		t.Fatal("borrow from exhausted pool returned immediately")
	case <-time.After(20 * time.Millisecond):
	}
	p.Return(a)
	select {
	case obj := <-got:
		if obj != a {
			t.Fatal("wrong object")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("borrower never woke after return")
	}
}

func TestMissedNotifyBreakpointReproducesStall(t *testing.T) {
	for i := 0; i < 5; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Breakpoint: true,
			Timeout: 500 * time.Millisecond, StallAfter: 300 * time.Millisecond})
		if r.Status != appkit.Stall || !r.BPHit {
			t.Fatalf("run %d: %s", i, r)
		}
	}
}

func TestWithoutBreakpointMostlyOK(t *testing.T) {
	bugs := 0
	for i := 0; i < 10; i++ {
		e := core.NewEngine()
		e.SetEnabled(false)
		if Run(Config{Engine: e, StallAfter: 500 * time.Millisecond}).Status.Buggy() {
			bugs++
		}
	}
	if bugs > 3 {
		t.Fatalf("stall manifested %d/10 without breakpoint", bugs)
	}
}
