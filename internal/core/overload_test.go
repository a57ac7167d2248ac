package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbreak/internal/guard"
)

// postponeN parks n goroutines on the named breakpoint's first side
// (same side, so they can never match each other) with a long timeout,
// and waits until all are postponed. Returns a cleanup that unblocks
// them via Reset and joins.
func postponeN(t *testing.T, e *Engine, name string, n int) func() {
	t.Helper()
	obj := new(int)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.TriggerHere(NewConflictTrigger(name, obj), true, Options{Timeout: 10 * time.Second})
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.PostponedCount(name) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters postponed on %s", e.PostponedCount(name), n, name)
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		e.Reset()
		wg.Wait()
	}
}

func TestOverloadShedsAtPerShardBound(t *testing.T) {
	e := newTestEngine()
	e.SetOverloadConfig(&OverloadConfig{MaxPerShard: 2})
	release := postponeN(t, e, "ov-shard", 2)
	defer release()

	out := e.TriggerOutcome(NewConflictTrigger("ov-shard", new(int)), true, Options{})
	if out != OutcomeShed {
		t.Fatalf("outcome = %v, want OutcomeShed", out)
	}
	if got := e.Stats("ov-shard").Sheds(); got != 1 {
		t.Fatalf("Sheds = %d, want 1", got)
	}
	if n := e.IncidentCount(guard.KindOverloadShed); n != 1 {
		t.Fatalf("overload-shed incidents = %d, want 1", n)
	}
	// An unrelated breakpoint is not affected by the per-shard bound.
	if out := e.TriggerOutcome(NewConflictTrigger("ov-other", new(int)), true,
		Options{Timeout: time.Millisecond}); out != OutcomeTimeout {
		t.Fatalf("unrelated breakpoint outcome = %v, want OutcomeTimeout", out)
	}
}

func TestOverloadShedsAtGlobalHighWater(t *testing.T) {
	e := newTestEngine()
	e.SetOverloadConfig(&OverloadConfig{GlobalHighWater: 2})
	release := postponeN(t, e, "ov-global-a", 2)
	defer release()

	// The global bound sheds arrivals on a breakpoint with an empty
	// shard of its own.
	out := e.TriggerOutcome(NewConflictTrigger("ov-global-b", new(int)), true, Options{})
	if out != OutcomeShed {
		t.Fatalf("outcome = %v, want OutcomeShed", out)
	}
}

func TestOverloadDisabledByNilConfig(t *testing.T) {
	e := newTestEngine()
	e.SetOverloadConfig(&OverloadConfig{MaxPerShard: 1})
	release := postponeN(t, e, "ov-off", 1)
	defer release()
	e.SetOverloadConfig(nil)
	if out := e.TriggerOutcome(NewConflictTrigger("ov-off", new(int)), true,
		Options{Timeout: time.Millisecond}); out != OutcomeTimeout {
		t.Fatalf("outcome = %v after disabling overload, want OutcomeTimeout", out)
	}
}

func TestAdaptiveBudgetMath(t *testing.T) {
	cfg := &OverloadConfig{GlobalHighWater: 100, SoftWater: 50, MinBudget: time.Millisecond}
	req := 100 * time.Millisecond
	if got := cfg.budget(req, 10); got != req {
		t.Fatalf("below soft water: budget = %v, want %v", got, req)
	}
	if got := cfg.budget(req, 50); got != req {
		t.Fatalf("at soft water: budget = %v, want %v", got, req)
	}
	mid := cfg.budget(req, 75)
	if mid >= req || mid <= cfg.MinBudget {
		t.Fatalf("midway budget = %v, want strictly between %v and %v", mid, cfg.MinBudget, req)
	}
	if got := cfg.budget(req, 100); got != cfg.MinBudget {
		t.Fatalf("at high water: budget = %v, want floor %v", got, cfg.MinBudget)
	}
	if got := cfg.budget(req, 1000); got != cfg.MinBudget {
		t.Fatalf("far past high water: budget = %v, want floor %v", got, cfg.MinBudget)
	}
	// Requests already below the floor are granted unchanged.
	if got := cfg.budget(time.Microsecond, 99); got != time.Microsecond {
		t.Fatalf("tiny request: budget = %v, want %v", got, time.Microsecond)
	}
	var nilCfg *OverloadConfig
	if got := nilCfg.budget(req, 1000); got != req {
		t.Fatalf("nil config: budget = %v, want %v", got, req)
	}
}

func TestAdaptiveBudgetShrinksUnderPressure(t *testing.T) {
	e := newTestEngine()
	e.SetOverloadConfig(&OverloadConfig{GlobalHighWater: 3, SoftWater: 1, MinBudget: time.Millisecond})
	release := postponeN(t, e, "ov-adapt", 2)
	defer release()

	// Global population is 2, between soft (1) and high (3): a 10s
	// request must be granted a drastically smaller budget.
	start := time.Now()
	out := e.TriggerOutcome(NewConflictTrigger("ov-adapt-b", new(int)), true,
		Options{Timeout: 10 * time.Second})
	elapsed := time.Since(start)
	if out != OutcomeTimeout {
		t.Fatalf("outcome = %v, want OutcomeTimeout", out)
	}
	if elapsed > 6*time.Second {
		t.Fatalf("waited %v; adaptive budget did not shrink the 10s request", elapsed)
	}
}

func TestPostponedTotalAccounting(t *testing.T) {
	e := newTestEngine()
	if got := e.PostponedTotal(); got != 0 {
		t.Fatalf("initial PostponedTotal = %d", got)
	}
	release := postponeN(t, e, "ov-count", 3)
	if got := e.PostponedTotal(); got != 3 {
		t.Fatalf("PostponedTotal = %d, want 3", got)
	}
	release() // Reset path
	if got := e.PostponedTotal(); got != 0 {
		t.Fatalf("PostponedTotal after Reset = %d, want 0", got)
	}

	// Timeout path.
	e.TriggerHere(NewConflictTrigger("ov-count", new(int)), true, Options{Timeout: time.Millisecond})
	if got := e.PostponedTotal(); got != 0 {
		t.Fatalf("PostponedTotal after timeout = %d, want 0", got)
	}

	// Hit path.
	obj := new(int)
	done := make(chan struct{})
	go func() {
		e.TriggerHere(NewConflictTrigger("ov-count", obj), true, Options{Timeout: 5 * time.Second})
		close(done)
	}()
	for e.PostponedCount("ov-count") == 0 {
		time.Sleep(time.Millisecond)
	}
	if !e.TriggerHere(NewConflictTrigger("ov-count", obj), false, Options{}) {
		t.Fatal("expected hit")
	}
	<-done
	if got := e.PostponedTotal(); got != 0 {
		t.Fatalf("PostponedTotal after hit = %d, want 0", got)
	}
}

func TestPostponedWaitersSnapshot(t *testing.T) {
	e := newTestEngine()
	release := postponeN(t, e, "ov-snap", 1)
	defer release()
	var multiDone sync.WaitGroup
	multiDone.Add(1)
	go func() {
		defer multiDone.Done()
		e.TriggerHereMulti(NewConflictTrigger("ov-snap-multi", new(int)), 1, 3,
			Options{Timeout: 10 * time.Second})
	}()
	for e.PostponedCount("ov-snap-multi") == 0 {
		time.Sleep(time.Millisecond)
	}

	byBP := map[string]PostponedWaiter{}
	for _, pw := range e.PostponedWaiters() {
		byBP[pw.Breakpoint] = pw
	}
	two, ok := byBP["ov-snap"]
	if !ok || two.Arity != 2 || two.Slot != 0 || two.GID == 0 {
		t.Fatalf("two-way snapshot = %+v, ok=%v", two, ok)
	}
	if two.Deadline.IsZero() {
		t.Fatal("two-way snapshot missing deadline")
	}
	multi, ok := byBP["ov-snap-multi"]
	if !ok || multi.Arity != 3 || multi.Slot != 1 {
		t.Fatalf("multi snapshot = %+v, ok=%v", multi, ok)
	}
	e.Reset()
	multiDone.Wait()
}

func TestForceReleaseIsExactlyOnce(t *testing.T) {
	e := newTestEngine()
	outCh := make(chan Outcome, 1)
	go func() {
		outCh <- e.TriggerOutcome(NewConflictTrigger("ov-force", new(int)), true,
			Options{Timeout: 10 * time.Second})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.PostponedCount("ov-force") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never postponed")
		}
		time.Sleep(time.Millisecond)
	}
	pws := e.PostponedWaiters()
	if len(pws) != 1 {
		t.Fatalf("PostponedWaiters = %v", pws)
	}
	gid := pws[0].GID

	if !e.ForceRelease("ov-force", gid, guard.KindCycleBreak, "test cycle break") {
		t.Fatal("first ForceRelease reported nothing released")
	}
	if out := <-outCh; out != OutcomeTimeout {
		t.Fatalf("released waiter outcome = %v, want OutcomeTimeout", out)
	}
	// Second release of the same goroutine must be a no-op: the shared
	// release path's state check makes forced release exactly-once.
	if e.ForceRelease("ov-force", gid, guard.KindCycleBreak, "double") {
		t.Fatal("second ForceRelease claimed to release again")
	}
	if n := e.IncidentCount(guard.KindCycleBreak); n != 1 {
		t.Fatalf("cycle-break incidents = %d, want 1", n)
	}
	if e.ForceRelease("no-such-bp", gid, guard.KindCycleBreak, "missing") {
		t.Fatal("ForceRelease on unknown breakpoint succeeded")
	}
}

// Forced release, Reset and the waiter's own timeout all race to end
// one postponement: exactly one of them does. A release that lost the
// race records no incident, and the postponed population returns to
// zero rather than being decremented twice.
func TestForceReleaseRacingResetAndTimeoutIsExactlyOnce(t *testing.T) {
	e := newTestEngine()
	raced := 0
	for i := 0; i < 200; i++ {
		outCh := make(chan Outcome, 1)
		go func() {
			outCh <- e.TriggerOutcome(NewConflictTrigger("ov-race", new(int)), true,
				Options{Timeout: time.Millisecond})
		}()
		var gid uint64
		for gid == 0 && len(outCh) == 0 {
			for _, w := range e.PostponedWaiters() {
				gid = w.GID
			}
			runtime.Gosched()
		}
		if gid == 0 {
			<-outCh // timed out before it was seen postponed
			continue
		}
		raced++
		before := e.IncidentCount(guard.KindForceRelease)
		var wg sync.WaitGroup
		var releases atomic.Int64
		wg.Add(3)
		for j := 0; j < 2; j++ {
			go func() {
				defer wg.Done()
				if e.ForceRelease("ov-race", gid, guard.KindForceRelease, "race") {
					releases.Add(1)
				}
			}()
		}
		go func() { defer wg.Done(); e.Reset() }()
		wg.Wait()
		if out := <-outCh; out != OutcomeTimeout {
			t.Fatalf("run %d: outcome = %v, want timeout", i, out)
		}
		n := releases.Load()
		if n > 1 {
			t.Fatalf("run %d: %d forced releases of one waiter", i, n)
		}
		if got := e.IncidentCount(guard.KindForceRelease) - before; got != n {
			t.Fatalf("run %d: force-release incidents = %d, want %d", i, got, n)
		}
		if got := e.PostponedTotal(); got != 0 {
			t.Fatalf("run %d: postponed total = %d after the waiter left, want 0", i, got)
		}
	}
	if raced == 0 {
		t.Fatal("no waiter was seen postponed before its timeout")
	}
}
