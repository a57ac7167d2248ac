package core

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbreak/internal/guard"
	"cbreak/internal/telemetry"
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
	// The accept loops and /healthz ask the same question.
	if reason, at := e.AtHighWater(); !at || reason != "global postponed population 2 at high water 2" {
		t.Fatalf("AtHighWater = %q, %v", reason, at)
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
	type released struct {
		out       Outcome
		incidents int64
	}
	outCh := make(chan released, 1)
	go func() {
		out := e.TriggerOutcome(NewConflictTrigger("ov-force", new(int)), true,
			Options{Timeout: 10 * time.Second})
		// The release records its incident before it wakes the waiter,
		// so the released goroutine already sees it.
		outCh <- released{out, e.IncidentCount(guard.KindCycleBreak)}
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
	if r := <-outCh; r.out != OutcomeTimeout || r.incidents != 1 {
		t.Fatalf("released waiter saw outcome %v and %d cycle-break incidents, want OutcomeTimeout and 1", r.out, r.incidents)
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

// --- Timeout-rate trip ----------------------------------------------

// The unit tests below drive one shard's trip state with a fake clock;
// tripCfg turns the trip on.
var tripCfg = &OverloadConfig{TimeoutRate: 0.9}

// trippedShard returns a shard whose trip opened at now on 100ms
// timeouts, so it backs off 1s.
func trippedShard(t *testing.T, now time.Time) *bpState {
	t.Helper()
	s := newShard(NewEngine(), "bp")
	for i := 0; i < tripMinSamples; i++ {
		s.trip.timedOut(tripCfg, now, 100*time.Millisecond)
	}
	if s.trip.State != BreakerOpen {
		t.Fatalf("state %v after %d timeouts, want open", s.trip.State, tripMinSamples)
	}
	return s
}

func TestBreakerTripsAtTimeoutRate(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newShard(NewEngine(), "bp")

	// Below tripMinSamples outcomes the trip stays closed, even at a
	// 100% timeout rate.
	for i := 1; i < tripMinSamples; i++ {
		if n := s.trip.timedOut(tripCfg, now, 100*time.Millisecond); n != (note{}) {
			t.Fatalf("timeout %d: %v before %d outcomes", i, n, tripMinSamples)
		}
	}
	if s.trip.State != BreakerClosed {
		t.Fatalf("state %v before %d outcomes, want closed", s.trip.State, tripMinSamples)
	}
	// The next timeout reaches tripMinSamples at a 100% rate: trip, for
	// tripBackoff times the 100ms timeout.
	if n := s.trip.timedOut(tripCfg, now, 100*time.Millisecond); n.kind != guard.KindBreakerTrip {
		t.Fatalf("note %v at %d outcomes, want a trip", n, tripMinSamples)
	}
	if s.trip.State != BreakerOpen || s.trip.Backoff != time.Second || !s.trip.OpenUntil.Equal(now.Add(time.Second)) {
		t.Fatalf("after the trip: %v until %v, want open for 1s", s.trip.BreakerSnapshot, s.trip.OpenUntil)
	}
	// Open: an arrival that finds no partner is shed, and the shed
	// records no incident of its own.
	if n, shed := s.admit(tripCfg, now.Add(999*time.Millisecond)); !shed || n != (note{}) {
		t.Fatalf("admit before the backoff expired = %v, %v, want a silent shed", n, shed)
	}
}

func TestBreakerHealthyRateStaysClosed(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newShard(NewEngine(), "bp")
	// Alternate hits and timeouts: 50% rate, far under the threshold.
	for i := 0; i < 100; i++ {
		s.trip.hit(tripCfg, 1)
		if n := s.trip.timedOut(tripCfg, now, time.Second); n != (note{}) {
			t.Fatalf("round %d: %v at a 50%% timeout rate", i, n)
		}
	}
	if s.trip.State != BreakerClosed {
		t.Fatalf("state %v, want closed", s.trip.State)
	}
}

func TestBreakerProbeRearm(t *testing.T) {
	now := time.Unix(1000, 0)
	s := trippedShard(t, now)

	// Before the backoff expires arrivals are shed.
	if _, shed := s.admit(tripCfg, now.Add(500*time.Millisecond)); !shed {
		t.Fatal("admitted during backoff")
	}
	// After expiry the first arrival is the probe...
	probeAt := now.Add(2 * time.Second)
	if n, shed := s.admit(tripCfg, probeAt); shed || n.kind != guard.KindBreakerProbe {
		t.Fatalf("admit after backoff = %v, %v, want the probe", n, shed)
	}
	if s.trip.State != BreakerHalfOpen {
		t.Fatalf("state %v after probe, want half-open", s.trip.State)
	}
	// ...and later arrivals are admitted too: a rendezvous probe needs a
	// partner to have any chance of hitting.
	if n, shed := s.admit(tripCfg, probeAt); shed || n != (note{}) {
		t.Fatalf("half-open admit = %v, %v, want admitted", n, shed)
	}
	// The probe hits: the trip closes, history and backoff reset, and
	// the partner's outcome is the one sample left.
	if n := s.trip.hit(tripCfg, 2); n.kind != guard.KindBreakerRearm {
		t.Fatalf("probe hit note %v, want a rearm", n)
	}
	if s.trip.BreakerSnapshot != (BreakerSnapshot{Samples: 1}) {
		t.Fatalf("after rearm: %v, want closed with one hit sampled", s.trip.BreakerSnapshot)
	}
}

func TestBreakerProbeFailureDoublesBackoff(t *testing.T) {
	now := time.Unix(1000, 0)
	s := trippedShard(t, now) // 1s: tripBackoff times 100ms

	// Doubled on each failed probe, then capped at tripMaxBackoff times
	// the probe's 100ms timeout.
	at := now
	for i, want := range []time.Duration{2, 4, 8, 16, 30, 30} {
		want *= time.Second
		at = at.Add(time.Minute) // far past any backoff
		if n, shed := s.admit(tripCfg, at); shed || n.kind != guard.KindBreakerProbe {
			t.Fatalf("probe %d: admit = %v, %v", i, n, shed)
		}
		if n := s.trip.timedOut(tripCfg, at, 100*time.Millisecond); n.kind != guard.KindBreakerTrip {
			t.Fatalf("probe %d: timeout note %v, want a reopen", i, n)
		}
		if s.trip.Backoff != want {
			t.Fatalf("probe %d: backoff %v, want %v", i, s.trip.Backoff, want)
		}
		if _, shed := s.admit(tripCfg, at.Add(time.Millisecond)); !shed {
			t.Fatalf("probe %d: admitted immediately after re-open", i)
		}
	}
}

func TestBreakerWindowDecay(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newShard(NewEngine(), "bp")
	// 48 hits, then 15 timeouts: 63 outcomes at a 24% rate.
	for i := 0; i < 48; i++ {
		s.trip.hit(tripCfg, 1)
	}
	for i := 0; i < 15; i++ {
		s.trip.timedOut(tripCfg, now, time.Second)
	}
	if s.trip.Samples != 63 || s.trip.Timeouts != 15 {
		t.Fatalf("before the window: samples=%d timeouts=%d, want 63/15", s.trip.Samples, s.trip.Timeouts)
	}
	// The 64th outcome reaches the window: both counts halve.
	s.trip.timedOut(tripCfg, now, time.Second)
	if s.trip.Samples != 32 || s.trip.Timeouts != 8 {
		t.Fatalf("after the window: samples=%d timeouts=%d, want 32/8", s.trip.Samples, s.trip.Timeouts)
	}
}

// lonelyTimeouts drives n one-sided arrivals on "bp" so every
// postponement times out.
func lonelyTimeouts(e *Engine, n int, timeout time.Duration) {
	for i := 0; i < n; i++ {
		e.TriggerHere(NewConflictTrigger("bp", new(int)), true, Options{Timeout: timeout})
	}
}

// tripBP turns the trip on and trips "bp" with tripMinSamples lonely
// timeouts, the last of the given timeout, so that the trip backs off
// tripBackoff times it.
func tripBP(t *testing.T, e *Engine, last time.Duration) {
	t.Helper()
	e.SetOverloadConfig(&OverloadConfig{TimeoutRate: 0.9})
	lonelyTimeouts(e, tripMinSamples-1, 5*time.Millisecond)
	if got := e.Stats("bp").Trips(); got != 0 {
		t.Fatalf("Trips = %d before %d outcomes, want 0", got, tripMinSamples)
	}
	lonelyTimeouts(e, 1, last)
	if snap, ok := e.BreakerSnapshot("bp"); !ok || snap.State != BreakerOpen || snap.Backoff != tripBackoff*last {
		t.Fatalf("after %d timeouts: %v/%v, want open for %v", tripMinSamples, snap, ok, tripBackoff*last)
	}
}

func TestBreakerTripShedsArrivals(t *testing.T) {
	e := newTestEngine()
	reg := telemetry.NewRegistry()
	e.RegisterMetrics(reg)
	tripBP(t, e, 200*time.Millisecond) // backs off 2s: no probe during the test
	if got := e.Stats("bp").Trips(); got != 1 {
		t.Fatalf("Trips = %d, want 1", got)
	}
	if got := e.IncidentCount(guard.KindBreakerTrip); got != 1 {
		t.Fatalf("trip incidents = %d, want 1", got)
	}

	// Arrivals now shed: no postponement, action still runs, near-instant.
	start := time.Now()
	ran := false
	out := e.shard("bp").trigger(NewConflictTrigger("bp", new(int)), 0, 2, Options{Timeout: time.Second}, func() { ran = true })
	if out != OutcomeShed {
		t.Fatalf("outcome = %v, want shed", out)
	}
	if !ran {
		t.Fatal("shed arrival must still run its action")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("shed arrival took %v; must pass through without postponement", d)
	}
	if got := e.Stats("bp").Sheds(); got != 1 {
		t.Fatalf("Sheds = %d, want 1", got)
	}
	if got := e.IncidentCount(guard.KindOverloadShed); got != 0 {
		t.Fatalf("overload-shed incidents = %d, want 0: the trip incident explains a trip shed", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`cbreak_bp_breaker_state{breakpoint="bp"} 1`,
		`cbreak_bp_breaker_trips_total{breakpoint="bp"} 1`,
		`cbreak_bp_sheds_total{breakpoint="bp"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestBreakerTripStillHits: the trip is checked after matching, so an
// arrival at a tripped breakpoint still hits a partner that was
// postponed before the trip.
func TestBreakerTripStillHits(t *testing.T) {
	e := newTestEngine()
	obj := new(int)
	partner := make(chan bool, 1)
	go func() {
		partner <- e.TriggerHere(NewConflictTrigger("bp", obj), false, Options{Timeout: 10 * time.Second})
	}()
	waitForPostponed(t, e, "bp", 1)
	tripBP(t, e, 200*time.Millisecond)
	if !e.TriggerHere(NewConflictTrigger("bp", obj), true, Options{}) || !<-partner {
		t.Fatal("an arrival at a tripped breakpoint missed its postponed partner")
	}
	if got := e.Stats("bp").Sheds(); got != 0 {
		t.Fatalf("Sheds = %d, want 0", got)
	}
}

func TestBreakerTripProbeRearm(t *testing.T) {
	e := newTestEngine()
	tripBP(t, e, 15*time.Millisecond) // backs off 150ms
	if out := e.TriggerOutcome(NewConflictTrigger("bp", new(int)), true, Options{}); out != OutcomeShed {
		t.Fatalf("tripped breakpoint outcome = %v, want shed (auto-disabled)", out)
	}

	// After the backoff, a matching pair probes the breakpoint: both sides
	// are admitted (a rendezvous probe needs its partner) and the hit
	// re-arms the breaker.
	time.Sleep(300 * time.Millisecond)
	obj := new(int)
	var wg sync.WaitGroup
	var hit1, hit2 bool
	wg.Add(2)
	go func() { defer wg.Done(); hit1 = e.TriggerHere(NewConflictTrigger("bp", obj), true, Options{}) }()
	go func() { defer wg.Done(); hit2 = e.TriggerHere(NewConflictTrigger("bp", obj), false, Options{}) }()
	wg.Wait()
	if !hit1 || !hit2 {
		t.Fatalf("probe pair hit = %v/%v, want both true", hit1, hit2)
	}
	if snap, _ := e.BreakerSnapshot("bp"); snap.State != BreakerClosed {
		t.Fatalf("state = %v after probe hit, want closed (re-armed)", snap.State)
	}
	if got := e.Stats("bp").Rearms(); got != 1 {
		t.Fatalf("Rearms = %d, want 1", got)
	}
	if got := e.IncidentCount(guard.KindBreakerProbe); got != 1 {
		t.Fatalf("probe incidents = %d, want 1", got)
	}
	if got := e.IncidentCount(guard.KindBreakerRearm); got != 1 {
		t.Fatalf("rearm incidents = %d, want 1", got)
	}

	// Re-armed: normal rendezvous continues to work.
	wg.Add(2)
	go func() { defer wg.Done(); hit1 = e.TriggerHere(NewConflictTrigger("bp", obj), true, Options{}) }()
	go func() { defer wg.Done(); hit2 = e.TriggerHere(NewConflictTrigger("bp", obj), false, Options{}) }()
	wg.Wait()
	if !hit1 || !hit2 {
		t.Fatalf("post-re-arm hit = %v/%v, want both true", hit1, hit2)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	e := newTestEngine()
	tripBP(t, e, 5*time.Millisecond) // backs off 50ms
	time.Sleep(100 * time.Millisecond)
	// The probe times out (still no partner): the trip reopens, and its
	// backoff doubles.
	lonelyTimeouts(e, 1, 5*time.Millisecond)
	snap, _ := e.BreakerSnapshot("bp")
	if snap.State != BreakerOpen {
		t.Fatalf("state = %v after failed probe, want open", snap.State)
	}
	if snap.Backoff != 100*time.Millisecond {
		t.Fatalf("backoff = %v after failed probe, want doubled 100ms", snap.Backoff)
	}
	if got := e.Stats("bp").Trips(); got != 2 {
		t.Fatalf("Trips = %d (initial + re-open), want 2", got)
	}
}

func TestBreakerDisabledByDefault(t *testing.T) {
	e := newTestEngine()
	lonelyTimeouts(e, 20, time.Millisecond)
	if _, ok := e.BreakerSnapshot("bp"); ok {
		t.Fatal("trip state exists without an overload config")
	}
	if out := e.TriggerOutcome(NewConflictTrigger("bp", new(int)), true, Options{Timeout: time.Millisecond}); out != OutcomeTimeout {
		t.Fatalf("outcome = %v, want timeout (no shedding without a trip)", out)
	}
	// An overload config that sets no TimeoutRate leaves the trip off.
	e.SetOverloadConfig(&OverloadConfig{MaxPerShard: 100})
	lonelyTimeouts(e, 20, time.Millisecond)
	if _, ok := e.BreakerSnapshot("bp"); ok {
		t.Fatal("trip state exists without a TimeoutRate")
	}
	if got := e.Stats("bp").Trips(); got != 0 {
		t.Fatalf("Trips = %d, want 0", got)
	}
}

func TestBreakerNewConfigDiscardsTripState(t *testing.T) {
	e := newTestEngine()
	tripBP(t, e, 200*time.Millisecond) // backs off 2s
	e.SetOverloadConfig(&OverloadConfig{TimeoutRate: 0.9})
	if snap, ok := e.BreakerSnapshot("bp"); !ok || snap != (BreakerSnapshot{}) {
		t.Fatalf("after a new config: %v/%v, want closed with no history", snap, ok)
	}
	if out := e.TriggerOutcome(NewConflictTrigger("bp", new(int)), true, Options{Timeout: time.Millisecond}); out != OutcomeTimeout {
		t.Fatalf("outcome = %v under the new config, want timeout", out)
	}
	if snap, _ := e.BreakerSnapshot("bp"); snap.State != BreakerClosed || snap.Samples != 1 {
		t.Fatalf("after one timeout: %v, want closed with one sample", snap)
	}
}
