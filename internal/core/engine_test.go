package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbreak/internal/guard"
	"cbreak/internal/locks"
)

func newTestEngine() *Engine {
	e := NewEngine()
	e.DefaultTimeout = 200 * time.Millisecond
	return e
}

func TestConflictRendezvous(t *testing.T) {
	e := newTestEngine()
	obj := new(int)
	var hit1, hit2 bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		hit1 = e.TriggerHere(NewConflictTrigger("bp", obj), true, Options{})
	}()
	go func() {
		defer wg.Done()
		hit2 = e.TriggerHere(NewConflictTrigger("bp", obj), false, Options{})
	}()
	wg.Wait()
	if !hit1 || !hit2 {
		t.Fatalf("expected both sides to hit, got first=%v second=%v", hit1, hit2)
	}
	if got := e.Stats("bp").Hits(); got != 1 {
		t.Fatalf("Hits = %d, want 1", got)
	}
}

func TestConflictDifferentObjectsTimeout(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = 20 * time.Millisecond
	a, b := new(int), new(int)
	var hit1, hit2 bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		hit1 = e.TriggerHere(NewConflictTrigger("bp", a), true, Options{})
	}()
	go func() {
		defer wg.Done()
		hit2 = e.TriggerHere(NewConflictTrigger("bp", b), false, Options{})
	}()
	wg.Wait()
	if hit1 || hit2 {
		t.Fatalf("different objects must not match: first=%v second=%v", hit1, hit2)
	}
	if got := e.Stats("bp").Timeouts(); got != 2 {
		t.Fatalf("Timeouts = %d, want 2", got)
	}
}

func TestDifferentNamesDoNotMatch(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = 20 * time.Millisecond
	obj := new(int)
	var wg sync.WaitGroup
	var hits atomic.Int32
	wg.Add(2)
	go func() {
		defer wg.Done()
		if e.TriggerHere(NewConflictTrigger("bpA", obj), true, Options{}) {
			hits.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		if e.TriggerHere(NewConflictTrigger("bpB", obj), false, Options{}) {
			hits.Add(1)
		}
	}()
	wg.Wait()
	if hits.Load() != 0 {
		t.Fatalf("breakpoints with different names matched")
	}
}

func TestSameGoroutineNeverMatches(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = 10 * time.Millisecond
	obj := new(int)
	// Two sequential arrivals from the same goroutine: the first times
	// out before the second arrives, but even a postponed entry from the
	// same goroutine must not match (t1 != t2). Exercise the gid check
	// directly through the matcher.
	gid := locks.GoroutineID()
	w := &waiter{t: NewConflictTrigger("bp", obj), slot: 1, arity: 2, gid: gid, ch: make(chan turn, 1)}
	s := e.shard("bp")
	s.mu.Lock()
	s.postponed = append(s.postponed, w)
	got, _, _ := s.match(nil, NewConflictTrigger("bp", obj), 0, 2, gid, guard.Fault{})
	sameSide, _, _ := s.match(nil, NewConflictTrigger("bp", obj), 1, 2, gid+1, guard.Fault{})
	s.mu.Unlock()
	if got != nil {
		t.Fatal("match paired a waiter with its own goroutine")
	}
	if sameSide != nil {
		t.Fatal("match paired a waiter with its own breakpoint side")
	}
}

func TestOrderingEnforcedWithHandshake(t *testing.T) {
	// The first-action side's instruction must run before the
	// second-action side's, in both arrival orders.
	for _, firstArrivesFirst := range []bool{true, false} {
		e := newTestEngine()
		obj := new(int)
		var order []string
		var mu sync.Mutex
		record := func(s string) func() {
			return func() {
				mu.Lock()
				order = append(order, s)
				mu.Unlock()
			}
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if !firstArrivesFirst {
				time.Sleep(10 * time.Millisecond)
			}
			e.TriggerHereAnd(NewConflictTrigger("bp", obj), true, Options{}, record("first"))
		}()
		go func() {
			defer wg.Done()
			if firstArrivesFirst {
				time.Sleep(10 * time.Millisecond)
			}
			e.TriggerHereAnd(NewConflictTrigger("bp", obj), false, Options{}, record("second"))
		}()
		wg.Wait()
		if len(order) != 2 || order[0] != "first" || order[1] != "second" {
			t.Fatalf("firstArrivesFirst=%v: order = %v, want [first second]", firstArrivesFirst, order)
		}
	}
}

func TestDisabledEngineIsNoop(t *testing.T) {
	e := newTestEngine()
	e.SetEnabled(false)
	obj := new(int)
	start := time.Now()
	ran := false
	hit := e.TriggerHereAnd(NewConflictTrigger("bp", obj), true, Options{}, func() { ran = true })
	if hit {
		t.Fatal("disabled engine reported a hit")
	}
	if !ran {
		t.Fatal("disabled engine must still run the action")
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("disabled trigger paused for %v", elapsed)
	}
	if out := e.TriggerOutcome(NewConflictTrigger("bp", obj), true, Options{}); out != OutcomeDisabled {
		t.Fatalf("outcome = %v, want disabled", out)
	}
}

func TestDeadlockTriggerMatchesCrossedLocks(t *testing.T) {
	e := newTestEngine()
	lockA, lockB := new(int), new(int)
	var hits atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if e.TriggerHere(NewDeadlockTrigger("dl", lockA, lockB), true, Options{}) {
			hits.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		if e.TriggerHere(NewDeadlockTrigger("dl", lockB, lockA), false, Options{}) {
			hits.Add(1)
		}
	}()
	wg.Wait()
	if hits.Load() != 2 {
		t.Fatalf("crossed deadlock triggers: hits = %d, want 2", hits.Load())
	}
}

func TestDeadlockTriggerRejectsUncrossedLocks(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = 20 * time.Millisecond
	lockA, lockB := new(int), new(int)
	var hits atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if e.TriggerHere(NewDeadlockTrigger("dl", lockA, lockB), true, Options{}) {
			hits.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		// Same order, not crossed: no deadlock state.
		if e.TriggerHere(NewDeadlockTrigger("dl", lockA, lockB), false, Options{}) {
			hits.Add(1)
		}
	}()
	wg.Wait()
	if hits.Load() != 0 {
		t.Fatalf("uncrossed deadlock triggers matched")
	}
}

func TestIgnoreFirstSkipsEarlyArrivals(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = 10 * time.Millisecond
	obj := new(int)
	opts := Options{IgnoreFirst: 3}
	// First three arrivals on the first-action side fail locally.
	for i := 0; i < 3; i++ {
		out := e.TriggerOutcome(NewConflictTrigger("bp", obj), true, opts)
		if out != OutcomeLocalFalse {
			t.Fatalf("arrival %d: outcome = %v, want local-false", i, out)
		}
	}
	// The fourth arrival is postponed (and times out with no partner).
	out := e.TriggerOutcome(NewConflictTrigger("bp", obj), true, opts)
	if out != OutcomeTimeout {
		t.Fatalf("fourth arrival: outcome = %v, want timeout", out)
	}
}

func TestBoundStopsAfterNHits(t *testing.T) {
	e := newTestEngine()
	obj := new(int)
	opts := Options{Bound: 1}
	hitPair := func() (bool, bool) {
		var h1, h2 bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); h1 = e.TriggerHere(NewConflictTrigger("bp", obj), true, opts) }()
		go func() { defer wg.Done(); h2 = e.TriggerHere(NewConflictTrigger("bp", obj), false, opts) }()
		wg.Wait()
		return h1, h2
	}
	if h1, h2 := hitPair(); !h1 || !h2 {
		t.Fatalf("first pair should hit: %v %v", h1, h2)
	}
	e.DefaultTimeout = 10 * time.Millisecond
	if h1, h2 := hitPair(); h1 || h2 {
		t.Fatalf("bound=1 exceeded: second pair hit: %v %v", h1, h2)
	}
}

func TestExtraLocalPredicate(t *testing.T) {
	e := newTestEngine()
	obj := new(int)
	allow := atomic.Bool{}
	opts := Options{Timeout: 10 * time.Millisecond, ExtraLocal: allow.Load}
	if out := e.TriggerOutcome(NewConflictTrigger("bp", obj), true, opts); out != OutcomeLocalFalse {
		t.Fatalf("outcome = %v, want local-false while ExtraLocal is false", out)
	}
	allow.Store(true)
	if out := e.TriggerOutcome(NewConflictTrigger("bp", obj), true, opts); out != OutcomeTimeout {
		t.Fatalf("outcome = %v, want timeout once ExtraLocal is true", out)
	}
}

func TestPredTriggerCustomPredicates(t *testing.T) {
	e := newTestEngine()
	mk := func(v int) *PredTrigger {
		return NewPredTrigger("pt", v, func() bool { return v > 0 }, func(o *PredTrigger) bool {
			return o.State.(int)+v == 10
		})
	}
	var hits atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if e.TriggerHere(mk(4), true, Options{}) {
			hits.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		if e.TriggerHere(mk(6), false, Options{}) {
			hits.Add(1)
		}
	}()
	wg.Wait()
	if hits.Load() != 2 {
		t.Fatalf("PredTrigger pair summing to 10 should hit, got %d", hits.Load())
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestResetReleasesPostponedWaiters(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = time.Hour // Reset, not the timer, must release
	obj := new(int)
	done := make(chan bool, 1)
	go func() {
		done <- e.TriggerHere(NewConflictTrigger("bp", obj), true, Options{})
	}()
	waitFor(t, "goroutine to be postponed", func() bool { return e.PostponedCount("bp") > 0 })
	e.Reset()
	if n := e.PostponedCount("bp"); n != 0 {
		t.Fatalf("PostponedCount after Reset = %d, want 0", n)
	}
	if got := e.Stats("bp").Arrivals(); got != 0 {
		t.Fatalf("stats not cleared by Reset: arrivals = %d", got)
	}
	select {
	case hit := <-done:
		if hit {
			t.Fatal("cancelled waiter reported a hit")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reset did not release the postponed waiter")
	}
}

func TestManyPairsStress(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = 2 * time.Second
	const pairs = 32
	objs := make([]*int, pairs)
	for i := range objs {
		objs[i] = new(int)
	}
	var hits atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		obj := objs[i]
		wg.Add(2)
		go func() {
			defer wg.Done()
			if e.TriggerHere(NewConflictTrigger("stress", obj), true, Options{}) {
				hits.Add(1)
			}
		}()
		go func() {
			defer wg.Done()
			if e.TriggerHere(NewConflictTrigger("stress", obj), false, Options{}) {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if hits.Load() != 2*pairs {
		t.Fatalf("stress: hits = %d, want %d", hits.Load(), 2*pairs)
	}
	if got := e.Stats("stress").Hits(); got != pairs {
		t.Fatalf("stress: breakpoint hits = %d, want %d", got, pairs)
	}
}

func TestStatsCounters(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = 10 * time.Millisecond
	obj := new(int)
	e.TriggerOutcome(NewConflictTrigger("s", obj), true, Options{ExtraLocal: func() bool { return false }})
	e.TriggerOutcome(NewConflictTrigger("s", obj), true, Options{})
	st := e.Stats("s")
	if st.Arrivals() != 2 {
		t.Errorf("Arrivals = %d, want 2", st.Arrivals())
	}
	if st.LocalFalses() != 1 {
		t.Errorf("LocalFalses = %d, want 1", st.LocalFalses())
	}
	if st.Postpones() != 1 {
		t.Errorf("Postpones = %d, want 1", st.Postpones())
	}
	if st.Timeouts() != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts())
	}
	if st.TotalWait() < 5*time.Millisecond {
		t.Errorf("TotalWait = %v, want >= ~10ms", st.TotalWait())
	}
	if st.MaxWait() < st.TotalWait()/2 {
		t.Errorf("MaxWait = %v vs TotalWait %v", st.MaxWait(), st.TotalWait())
	}
	if e.Report() == "" {
		t.Error("Report is empty")
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{
		OutcomeDisabled:   "disabled",
		OutcomeLocalFalse: "local-false",
		OutcomeTimeout:    "timeout",
		OutcomeHit:        "hit",
		Outcome(99):       "unknown",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
}

func TestAllStatsSorted(t *testing.T) {
	e := newTestEngine()
	e.Stats("zz")
	e.Stats("aa")
	e.Stats("mm")
	all := e.AllStats()
	if len(all) != 3 || all[0].Name() != "aa" || all[1].Name() != "mm" || all[2].Name() != "zz" {
		t.Fatalf("AllStats not sorted: %v", all)
	}
}

func TestThreeWaitersOldestMatchedFirst(t *testing.T) {
	e := newTestEngine()
	obj := new(int)
	results := make(chan int, 2)
	// Two second-action waiters arrive, then one first-action arrives;
	// the oldest waiter must be the one matched.
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			if e.TriggerHere(NewConflictTrigger("order", obj), false, Options{Timeout: time.Hour}) {
				results <- i
			} else {
				results <- -1
			}
		}()
		waitFor(t, "waiter to be postponed", func() bool { return e.PostponedCount("order") == i+1 })
	}
	if !e.TriggerHere(NewConflictTrigger("order", obj), true, Options{}) {
		t.Fatal("first-action side did not hit")
	}
	select {
	case first := <-results:
		if first != 0 {
			t.Fatalf("matched waiter = %d, want oldest (0)", first)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("matched waiter never returned")
	}
	// Release the remaining waiter promptly via Reset.
	e.Reset()
	select {
	case second := <-results:
		if second != -1 {
			t.Fatalf("unmatched waiter returned %d, want -1", second)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reset did not release the remaining waiter")
	}
}

func TestDefaultEngineHelpers(t *testing.T) {
	Reset()
	SetEnabled(true)
	if !Enabled() {
		t.Fatal("default engine should be enabled")
	}
	if Default() == nil {
		t.Fatal("Default returned nil")
	}
	obj := new(int)
	var wg sync.WaitGroup
	var h1, h2 bool
	wg.Add(2)
	go func() {
		defer wg.Done()
		h1 = TriggerHere(NewConflictTrigger("default-bp", obj), true, 500*time.Millisecond)
	}()
	go func() {
		defer wg.Done()
		h2 = TriggerHereOpts(NewConflictTrigger("default-bp", obj), false, Options{Timeout: 500 * time.Millisecond})
	}()
	wg.Wait()
	if !h1 || !h2 {
		t.Fatalf("default engine pair did not hit: %v %v", h1, h2)
	}
	ran := false
	TriggerHereAnd(NewConflictTrigger("default-solo", obj), true, Options{Timeout: 5 * time.Millisecond}, func() { ran = true })
	if !ran {
		t.Fatal("TriggerHereAnd must run action on timeout")
	}
	Reset()
}
