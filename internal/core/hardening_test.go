package core

import (
	"sync"
	"testing"
	"time"

	"cbreak/internal/guard"
	"cbreak/internal/guard/faultinject"
)

// --- Panic isolation -------------------------------------------------

func TestPredicatePanicOutcomes(t *testing.T) {
	boom := func() bool { panic("predicate boom") }
	cases := []struct {
		name string
		run  func(e *Engine) Outcome
	}{
		{"local", func(e *Engine) Outcome {
			tr := NewPredTrigger("bp", nil, boom, nil)
			return e.TriggerOutcome(tr, true, Options{})
		}},
		{"extra-local", func(e *Engine) Outcome {
			tr := NewConflictTrigger("bp", new(int))
			return e.TriggerOutcome(tr, true, Options{ExtraLocal: boom})
		}},
		{"injected-local", func(e *Engine) Outcome {
			e.SetInjector(faultinject.NewPlan().PanicLocal("bp", faultinject.BothSides))
			return e.TriggerOutcome(NewConflictTrigger("bp", new(int)), true, Options{})
		}},
		{"injected-extra", func(e *Engine) Outcome {
			e.SetInjector(faultinject.NewPlan().PanicExtra("bp", faultinject.BothSides))
			tr := NewConflictTrigger("bp", new(int))
			return e.TriggerOutcome(tr, true, Options{ExtraLocal: func() bool { return true }})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine()
			if out := tc.run(e); out != OutcomePanic {
				t.Fatalf("outcome = %v, want panic", out)
			}
			if got := e.Stats("bp").Panics(); got != 1 {
				t.Fatalf("Panics = %d, want 1", got)
			}
			if got := e.IncidentCount(guard.KindPanic); got != 1 {
				t.Fatalf("panic incidents = %d, want 1", got)
			}
			if got := e.PostponedCount("bp"); got != 0 {
				t.Fatalf("postponed after panic = %d, want 0", got)
			}
		})
	}
}

func TestPredicatePanicStillRunsAction(t *testing.T) {
	e := newTestEngine()
	tr := NewPredTrigger("bp", nil, func() bool { panic("boom") }, nil)
	ran := false
	if hit := e.TriggerHereAnd(tr, true, Options{}, func() { ran = true }); hit {
		t.Fatal("panicked trigger reported a hit")
	}
	if !ran {
		t.Fatal("action (the app's own instruction) must run even when the predicate panics")
	}
}

func TestGlobalPredicatePanicReleasesPartner(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = 5 * time.Second // only a poisoned release can return quickly

	partnerOut := make(chan Outcome, 1)
	go func() {
		tr := NewPredTrigger("bp", nil, nil, func(other *PredTrigger) bool { return true })
		partnerOut <- e.TriggerOutcome(tr, false, Options{})
	}()
	waitForPostponed(t, e, "bp", 1)

	poison := NewPredTrigger("bp", nil, nil, func(other *PredTrigger) bool { panic("global boom") })
	if out := e.TriggerOutcome(poison, true, Options{}); out != OutcomePanic {
		t.Fatalf("arriving side outcome = %v, want panic", out)
	}
	select {
	case out := <-partnerOut:
		if out != OutcomePanic {
			t.Fatalf("postponed partner outcome = %v, want panic", out)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("postponed partner not released after poisoned joint predicate")
	}
	if got := e.PostponedCount("bp"); got != 0 {
		t.Fatalf("postponed = %d, want 0", got)
	}
	if got := e.IncidentCount(guard.KindPanic); got != 1 {
		t.Fatalf("panic incidents = %d, want 1", got)
	}
}

func TestActionPanicPolicies(t *testing.T) {
	runPair := func(e *Engine, action func()) (firstHit bool, panicked any, secondHit bool) {
		var wg sync.WaitGroup
		obj := new(int)
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer func() { panicked = recover() }()
			firstHit = e.TriggerHereAnd(NewConflictTrigger("bp", obj), true, Options{}, action)
		}()
		go func() {
			defer wg.Done()
			secondHit = e.TriggerHere(NewConflictTrigger("bp", obj), false, Options{})
		}()
		wg.Wait()
		return
	}

	t.Run("default-repanics", func(t *testing.T) {
		e := newTestEngine()
		_, panicked, secondHit := runPair(e, func() { panic("action boom") })
		if panicked == nil {
			t.Fatal("action panic must propagate to the caller by default")
		}
		if !secondHit {
			t.Fatal("partner must still be released when the first action panics")
		}
		if got := e.IncidentCount(guard.KindPanic); got != 1 {
			t.Fatalf("panic incidents = %d, want 1", got)
		}
	})
	t.Run("isolated", func(t *testing.T) {
		e := newTestEngine()
		e.SetIsolateActionPanics(true)
		firstHit, panicked, secondHit := runPair(e, func() { panic("action boom") })
		if panicked != nil {
			t.Fatalf("isolated action panic escaped: %v", panicked)
		}
		if firstHit {
			t.Fatal("absorbed action panic must not count as a hit for the caller")
		}
		if !secondHit {
			t.Fatal("partner must still be released")
		}
		if got := e.Stats("bp").Panics(); got != 1 {
			t.Fatalf("Panics = %d, want 1", got)
		}
	})
}

func TestMultiPredicatePanic(t *testing.T) {
	e := newTestEngine()
	e.SetInjector(faultinject.NewPlan().PanicLocal("bp", faultinject.BothSides))
	out := e.shard("bp").triggerMulti(NewConflictTrigger("bp", new(int)), 0, 3, Options{}, nil)
	if out != OutcomePanic {
		t.Fatalf("multi outcome = %v, want panic", out)
	}
	if got := e.PostponedCount("bp"); got != 0 {
		t.Fatalf("multi postponed = %d, want 0", got)
	}
}

// --- Postponement helpers -------------------------------------------

func waitForPostponed(t *testing.T, e *Engine, name string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for e.PostponedCount(name) < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d postponed on %q", n, name)
		}
		time.Sleep(time.Millisecond)
	}
}

// --- Stalled actions -------------------------------------------------

func TestStalledActionRecordsIncident(t *testing.T) {
	e := newTestEngine()
	e.SetInjector(faultinject.NewPlan().StallAction("bp", faultinject.FirstSide, 60*time.Millisecond))

	obj := new(int)
	var wg sync.WaitGroup
	var hit2 bool
	wg.Add(2)
	go func() {
		defer wg.Done()
		e.TriggerHereAnd(NewConflictTrigger("bp", obj), true, Options{Timeout: 20 * time.Millisecond}, func() {})
	}()
	go func() {
		defer wg.Done()
		hit2 = e.TriggerHere(NewConflictTrigger("bp", obj), false, Options{Timeout: 20 * time.Millisecond})
	}()
	wg.Wait()
	if !hit2 {
		t.Fatal("second side must be released (defensive timeout) despite the stalled first action")
	}
	if got := e.IncidentCount(guard.KindStall); got == 0 {
		t.Fatal("no stall incident recorded for an action past the handshake budget")
	}
}

// --- Drop (partner no-show) -----------------------------------------

func TestDroppedArrivalLeavesPartnerToTimeout(t *testing.T) {
	e := newTestEngine()
	e.SetInjector(faultinject.NewPlan().Drop("bp", faultinject.FirstSide))
	obj := new(int)

	out := make(chan Outcome, 1)
	go func() {
		out <- e.TriggerOutcome(NewConflictTrigger("bp", obj), false, Options{Timeout: 50 * time.Millisecond})
	}()
	waitForPostponed(t, e, "bp", 1)
	if got := e.TriggerOutcome(NewConflictTrigger("bp", obj), true, Options{}); got != OutcomeLocalFalse {
		t.Fatalf("dropped arrival outcome = %v, want local-false", got)
	}
	if got := <-out; got != OutcomeTimeout {
		t.Fatalf("partner outcome = %v, want timeout (no-show)", got)
	}
}

// --- Reset vs in-flight handshakes ----------------------------------

// TestResetDuringPostponementNeverLeaks resets the engine while waiters
// are postponed (two-way and multi) and asserts every one returns
// promptly and nothing stays in the postponed sets.
func TestResetDuringPostponementNeverLeaks(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = 10 * time.Second // only Reset can release them quickly

	const pairs = 8
	outs := make(chan Outcome, pairs*2)
	for i := 0; i < pairs; i++ {
		obj := new(int)
		go func() { outs <- e.TriggerOutcome(NewConflictTrigger("two", obj), true, Options{}) }()
		go func() {
			outs <- e.shard("multi").triggerMulti(NewConflictTrigger("multi", obj), 0, 3, Options{}, nil)
		}()
	}
	waitForPostponed(t, e, "two", pairs)
	waitForPostponed(t, e, "multi", pairs)

	e.Reset()

	for i := 0; i < pairs*2; i++ {
		select {
		case out := <-outs:
			if out != OutcomeTimeout {
				t.Fatalf("reset waiter outcome = %v, want timeout", out)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("waiter %d still blocked after Reset: leak", i)
		}
	}
	if n := e.PostponedCount("two") + e.PostponedCount("multi"); n != 0 {
		t.Fatalf("%d waiters left in postponed sets after Reset", n)
	}
}

// TestResetDuringActiveHandshake hammers Reset concurrently with live
// rendezvous traffic: every trigger call must return within a bounded
// time no matter where Reset cuts the handshake.
func TestResetDuringActiveHandshake(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = 20 * time.Millisecond

	stop := make(chan struct{})
	var resets sync.WaitGroup
	resets.Add(1)
	go func() {
		defer resets.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Reset()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	obj := new(int)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(first bool) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				e.TriggerHereAnd(NewConflictTrigger("bp", obj), first, Options{}, func() {})
			}
		}(i%2 == 0)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("trigger traffic wedged while Reset was cycling: leaked handshake")
	}
	close(stop)
	resets.Wait()
	if n := e.PostponedCount("bp"); n != 0 {
		t.Fatalf("%d waiters leaked", n)
	}
}

// --- Snapshot --------------------------------------------------------

func TestSnapshotConsistentUnderLoad(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = time.Millisecond
	stop := make(chan struct{})
	var wg sync.WaitGroup
	obj := new(int)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(first bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					e.TriggerHere(NewConflictTrigger("bp", obj), first, Options{})
				}
			}
		}(i%2 == 0)
	}
	// Read snapshots concurrently with the traffic; -race verifies the
	// reads are not torn.
	for i := 0; i < 100; i++ {
		for _, snap := range e.SnapshotAll() {
			if snap.Arrivals < snap.Hits {
				t.Errorf("snapshot arrivals=%d < hits=%d", snap.Arrivals, snap.Hits)
			}
		}
	}
	close(stop)
	wg.Wait()

	snap := e.Stats("bp").Snapshot()
	if snap.Name != "bp" {
		t.Fatalf("snapshot name = %q", snap.Name)
	}
	if snap.Arrivals != snap.LocalFalses+snap.Postpones+snap.Hits {
		t.Fatalf("conservation violated in snapshot: %+v", snap)
	}
	if snap.Hits > 0 && snap.LastHit.IsZero() {
		t.Fatal("LastHit zero despite hits")
	}
}
