package fig4

import (
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
)

func TestBreakpointMakesErrorCertain(t *testing.T) {
	// Paper Figure 4: with the breakpoint, ERROR is reached essentially
	// always.
	for i := 0; i < 10; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Breakpoint: true, Timeout: 2 * time.Second})
		if r.Status != appkit.Exception || !r.BPHit {
			t.Fatalf("run %d: %s", i, r)
		}
	}
}

func TestWithoutBreakpointErrorIsRare(t *testing.T) {
	// thread2's write at line 10 runs at the start; thread1's read at
	// line 8 runs after a long block — the natural hit probability is
	// tiny.
	errors := 0
	for i := 0; i < 20; i++ {
		e := core.NewEngine()
		e.SetEnabled(false)
		if Run(Config{Engine: e}).Status == appkit.Exception {
			errors++
		}
	}
	if errors > 4 {
		t.Fatalf("ERROR reached %d/20 without the breakpoint", errors)
	}
}

func TestStepProbabilityMatchesIntuition(t *testing.T) {
	// With a long thread1 prefix, the read-before-write interleaving is
	// rare; shortening the prefix raises the probability.
	long := StepProbability(200, 5, 400, 1)
	short := StepProbability(2, 5, 400, 1)
	if long >= short {
		t.Fatalf("probabilities inverted: long=%v short=%v", long, short)
	}
	if long > 0.01 {
		t.Fatalf("long-prefix probability too high: %v", long)
	}
	// Read-before-write for a 2-step prefix requires the first three
	// scheduling choices to pick thread1: p = (1/2)^3 = 0.125.
	if short < 0.06 || short > 0.25 {
		t.Fatalf("short-prefix probability implausible: %v (want ~0.125)", short)
	}
}

func TestBusyDeterministic(t *testing.T) {
	if appkit.Busy(1000) != appkit.Busy(1000) {
		t.Fatal("busy not deterministic")
	}
	if appkit.Busy(10) == appkit.Busy(11) {
		t.Fatal("busy ignores n")
	}
}
