package lucene

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

func TestIndexAndSearch(t *testing.T) {
	w := NewIndexWriter(2, quietCfg())
	w.AddDocument("The quick brown fox")
	w.AddDocument("the lazy dog sleeps") // triggers auto-flush at 2 docs
	w.AddDocument("a fox and a dog")
	w.Commit()
	foxes := w.committed["fox"]
	if len(foxes) != 2 {
		t.Fatalf("fox postings = %v", foxes)
	}
	dogs := w.committed["dog"]
	if len(dogs) != 2 {
		t.Fatalf("dog postings = %v", dogs)
	}
	if len(w.committed["cat"]) != 0 {
		t.Fatal("phantom postings")
	}
}

func TestTokenizationNormalizes(t *testing.T) {
	w := NewIndexWriter(100, quietCfg())
	w.AddDocument("Hello, HELLO! (hello)")
	w.Commit()
	ps := w.committed["hello"]
	if len(ps) != 1 || ps[0].Freq != 3 {
		t.Fatalf("postings = %v", ps)
	}
}

func TestDocIDsIncrease(t *testing.T) {
	w := NewIndexWriter(100, quietCfg())
	a := w.AddDocument("one")
	b := w.AddDocument("two")
	if b != a+1 {
		t.Fatalf("doc ids: %d then %d", a, b)
	}
}

func TestDeadlockBreakpointReproducesStall(t *testing.T) {
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
		t.Fatalf("deadlock manifested %d/10 without breakpoint", bugs)
	}
}
