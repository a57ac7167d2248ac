package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbreak/internal/guard"
	"cbreak/internal/telemetry"
)

func TestEventLogRecordsLifecycle(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = 10 * time.Millisecond
	tap := &recordingTap{}
	defer e.Bus().AttachTap(tap).Detach()
	obj := new(int)
	// A lonely arrival: arrived -> postponed -> timeout.
	e.TriggerHere(NewConflictTrigger("ev-bp", obj), true, Options{})
	events := tap.events()
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3: %v", len(events), events)
	}
	wantKinds := []EventKind{EventArrived, EventPostponed, EventTimeout}
	for i, ev := range events {
		if ev.Kind != wantKinds[i] || ev.Breakpoint != "ev-bp" || !ev.First {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if ev.GID == 0 || ev.When.IsZero() {
			t.Fatalf("event %d missing metadata: %+v", i, ev)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}

func TestEventLogRecordsHit(t *testing.T) {
	e := newTestEngine()
	tap := &recordingTap{}
	defer e.Bus().AttachTap(tap).Detach()
	obj := new(int)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); e.TriggerHere(NewConflictTrigger("hit-bp", obj), true, Options{}) }()
	go func() { defer wg.Done(); e.TriggerHere(NewConflictTrigger("hit-bp", obj), false, Options{}) }()
	wg.Wait()
	var hits int
	for _, ev := range tap.events() {
		if ev.Kind == EventHit {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("hit events = %d, want 1: %v", hits, tap.events())
	}
}

// TestNoListenerStampsNothing: arrivals on an engine nobody listens to
// take no event sequence number, so the first event a late listener
// receives is Seq 1.
func TestNoListenerStampsNothing(t *testing.T) {
	e := newTestEngine()
	e.DefaultTimeout = time.Millisecond
	obj := new(int)
	never := Options{ExtraLocal: func() bool { return false }}
	for i := 0; i < 100; i++ {
		e.TriggerHere(NewConflictTrigger("quiet", obj), i%2 == 0, never)
	}
	e.TriggerHere(NewConflictTrigger("quiet", obj), true, Options{}) // arrived, postponed, timeout
	if n := e.Stats("quiet").Arrivals(); n != 101 {
		t.Fatalf("arrivals = %d, want 101", n)
	}

	tap := &recordingTap{}
	h := e.Bus().AttachTap(tap)
	e.TriggerHere(NewConflictTrigger("quiet", obj), false, never)
	h.Detach()
	events := tap.events()
	if len(events) != 1 || events[0].Seq != 1 || events[0].Kind != EventArrived {
		t.Fatalf("first listened event = %+v, want one arrival with Seq 1", events)
	}
}

// noopTap receives records and drops them.
type noopTap struct{}

func (noopTap) Deliver(telemetry.Record) {}

// allocClasses names the trigger classes arriveAs builds.
var allocClasses = []string{"conflict", "atomicity", "notify", "deadlock", "pred"}

// allocA and allocB are the objects arriveAs's triggers reference.
var allocA, allocB = new(int), new(int)

// arriveAs makes one arrival at the named breakpoint with a trigger of
// class allocClasses[class], built in place as the apps build theirs:
// through h when it is not nil, else through Engine.TriggerHere, which
// reports only a hit. The two sides of each class match each other.
func arriveAs(e *Engine, h *Breakpoint, class int, name string, first bool, opts Options) Outcome {
	held, want := allocA, allocB
	if !first {
		held, want = want, held
	}
	var t Trigger
	switch class {
	case 0:
		t = NewConflictTrigger(name, allocA)
	case 1:
		t = NewAtomicityTrigger(name, allocA)
	case 2:
		t = NewNotifyTrigger(name, allocA)
	case 3:
		t = NewDeadlockTrigger(name, held, want)
	default:
		t = NewPredTrigger(name, allocA, nil, func(o *PredTrigger) bool { return o.State != nil })
	}
	if h != nil {
		return h.TriggerOutcome(t, first, opts)
	}
	if e.TriggerHere(t, first, opts) {
		return OutcomeHit
	}
	return OutcomeLocalFalse
}

// ownFalseBP is the breakpoint arriveOwnFalse arrives at.
const ownFalseBP = "alloc.own"

// arriveOwnFalse makes one arrival at ownFalseBP with a PredTrigger
// whose own Local is false, the one class whose local predicate the
// engine runs under recover: pre when it is not nil, else one built in
// place; through h when it is not nil, else through Engine.TriggerHere.
func arriveOwnFalse(e *Engine, h *Breakpoint, pre Trigger) Outcome {
	t := pre
	if t == nil {
		t = NewPredTrigger(ownFalseBP, allocA, func() bool { return false }, nil)
	}
	if h != nil {
		return h.TriggerOutcome(t, true, Options{})
	}
	if e.TriggerHere(t, true, Options{}) {
		return OutcomeHit
	}
	return OutcomeLocalFalse
}

// TestRejectedArrivalsDoNotAllocate: an arrival that is not postponed
// allocates nothing, with its trigger built inside the measured call as
// the apps build it. Every class is checked on the disabled path (engine
// wide and per breakpoint), the local-false path and the bound-spent
// path, through a handle and through Engine.TriggerHere, with no
// listener on the bus and with a tap attached. The local-false path is
// also taken on the trigger's own predicate: a PredTrigger with Local
// false, built in place and pre-built (neverTrigger).
func TestRejectedArrivalsDoNotAllocate(t *testing.T) {
	e := newTestEngine()
	never := Options{ExtraLocal: func() bool { return false }}
	bound := Options{Bound: 1}
	for c, class := range allocClasses {
		// Spend each class's bound: one hit on its bound breakpoint.
		name := "alloc.bound." + class
		h := e.Breakpoint(name)
		var wg sync.WaitGroup
		for _, first := range []bool{true, false} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				arriveAs(e, h, c, name, first, Options{Bound: 1, Timeout: 5 * time.Second})
			}()
		}
		wg.Wait()
		if n := h.Stats().Hits(); n != 1 {
			t.Fatalf("%s: %d set-up hits, want 1", name, n)
		}
		e.SetBreakpointEnabled("alloc.off."+class, false)
	}
	type via struct {
		api string
		h   *Breakpoint
	}
	check := func(path, bp, listener string, want Outcome, opts Options) {
		t.Helper()
		for c, class := range allocClasses {
			name := "alloc." + bp + "." + class
			h := e.Breakpoint(name)
			if got := arriveAs(e, h, c, name, true, opts); got != want {
				t.Fatalf("%s: outcome %v, want %v", name, got, want)
			}
			for _, v := range []via{{"handle", h}, {"TriggerHere", nil}} {
				if n := testing.AllocsPerRun(200, func() { arriveAs(e, v.h, c, name, true, opts) }); n != 0 {
					t.Errorf("%s, %s through %s, %s: %v allocs, want 0", class, path, v.api, listener, n)
				}
			}
		}
	}
	own := e.Breakpoint(ownFalseBP)
	checkOwnFalse := func(listener string) {
		t.Helper()
		for _, p := range []struct {
			built string
			pre   Trigger
		}{{"built in place", nil}, {"pre-built", neverTrigger(ownFalseBP)}} {
			if got := arriveOwnFalse(e, own, p.pre); got != OutcomeLocalFalse {
				t.Fatalf("pred with Local false, %s: outcome %v, want %v", p.built, got, OutcomeLocalFalse)
			}
			for _, v := range []via{{"handle", own}, {"TriggerHere", nil}} {
				if n := testing.AllocsPerRun(200, func() { arriveOwnFalse(e, v.h, p.pre) }); n != 0 {
					t.Errorf("pred with Local false, %s, through %s, %s: %v allocs, want 0", p.built, v.api, listener, n)
				}
			}
		}
	}
	for _, listener := range []string{"no listener", "one tap"} {
		var h *telemetry.TapHandle
		if listener == "one tap" {
			h = e.Bus().AttachTap(noopTap{})
		}
		check("breakpoint disabled", "off", listener, OutcomeDisabled, Options{})
		check("local-false", "local", listener, OutcomeLocalFalse, never)
		checkOwnFalse(listener)
		check("bound spent", "bound", listener, OutcomeLocalFalse, bound)
		e.SetEnabled(false)
		check("engine disabled", "local", listener, OutcomeDisabled, never)
		e.SetEnabled(true)
		if h != nil {
			h.Detach()
		}
	}
}

// TestOnHitMayCallBackIntoEngine: the hit callback runs outside the
// shard mutex, so a callback that reads, releases or resets its own
// breakpoint returns, and both sides of the hit proceed.
func TestOnHitMayCallBackIntoEngine(t *testing.T) {
	e := newTestEngine()
	postponed := make(chan int, 1)
	e.SetOnHit(func(name string, arriving, partner Trigger) {
		postponed <- e.PostponedCount(name) + len(e.PostponedWaiters())
		e.ForceRelease(name, 0, guard.KindForceRelease, "from the hit callback")
		e.Reset()
	})
	obj := new(int)
	done := make(chan Outcome, 2)
	for _, first := range []bool{true, false} {
		go func() {
			done <- e.TriggerOutcome(NewConflictTrigger("reenter", obj), first, Options{Timeout: time.Second})
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case out := <-done:
			if out != OutcomeHit {
				t.Errorf("side %d: outcome %v, want hit", i, out)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a hit whose callback calls back into the engine did not finish in 5s")
		}
	}
	if n := <-postponed; n != 0 {
		t.Errorf("the callback saw %d postponed waiters, want 0", n)
	}
}

// TestSlowOnHitKeepsOrder: the hit callback returns before either side
// of the hit proceeds, whichever side arrives second, so a callback
// slower than the postponed side's timeout neither reverses the order
// nor runs beside a side's action.
func TestSlowOnHitKeepsOrder(t *testing.T) {
	const timeout, slow = 200 * time.Millisecond, 600 * time.Millisecond
	for _, arrivingFirst := range []bool{true, false} {
		e := newTestEngine()
		var mu sync.Mutex
		var order []string
		note := func(s string) {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
		e.SetOnHit(func(string, Trigger, Trigger) {
			time.Sleep(slow)
			note("callback")
		})
		obj := new(int)
		arrive := func(first bool) bool {
			act := "second"
			if first {
				act = "first"
			}
			return e.TriggerHereAnd(NewConflictTrigger("slow-hit", obj), first,
				Options{Timeout: timeout}, func() { note(act) })
		}
		postponed := make(chan bool, 1)
		go func() { postponed <- arrive(!arrivingFirst) }()
		for e.PostponedCount("slow-hit") == 0 {
			time.Sleep(time.Millisecond)
		}
		if !arrive(arrivingFirst) || !<-postponed {
			t.Fatalf("arriving first=%v: no hit", arrivingFirst)
		}
		want := []string{"callback", "first", "second"}
		if strings.Join(order, ",") != strings.Join(want, ",") {
			t.Errorf("arriving first=%v, callback %v against a %v timeout: order %v, want %v",
				arrivingFirst, slow, timeout, order, want)
		}
	}
}

// TestPanickingOnHitReleasesPartner: a hit callback that panics unwinds
// the arriving side, and the postponed side still gets its turn.
func TestPanickingOnHitReleasesPartner(t *testing.T) {
	e := newTestEngine()
	e.SetOnHit(func(string, Trigger, Trigger) { panic("from the hit callback") })
	obj := new(int)
	opts := Options{Timeout: 5 * time.Second}
	postponed := make(chan Outcome, 1)
	go func() { postponed <- e.TriggerOutcome(NewConflictTrigger("panic-hit", obj), true, opts) }()
	for e.PostponedCount("panic-hit") == 0 {
		time.Sleep(time.Millisecond)
	}
	func() {
		defer func() {
			if r := recover(); r != "from the hit callback" {
				t.Errorf("arriving side recovered %v, want the callback's panic", r)
			}
		}()
		e.TriggerOutcome(NewConflictTrigger("panic-hit", obj), false, opts)
	}()
	select {
	case out := <-postponed:
		if out != OutcomeHit {
			t.Errorf("postponed side: outcome %v, want hit", out)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the postponed side did not get its turn in 10s after the callback panicked")
	}
}

// TestNilTriggerPanics: an arrival with a nil trigger panics at once,
// through the name and through a handle, instead of waiting out its
// timeout as a waiter that nothing matches.
func TestNilTriggerPanics(t *testing.T) {
	e := newTestEngine()
	h := e.Breakpoint("nil")
	opts := Options{Timeout: 5 * time.Second}
	for _, c := range []struct {
		api    string
		arrive func()
	}{
		{"TriggerHere", func() { e.TriggerHere(nil, true, opts) }},
		{"handle", func() { h.Trigger(nil, true, opts) }},
	} {
		func() {
			defer func() {
				if r := recover(); r != nilTrigger {
					t.Errorf("%s: recovered %v, want %q", c.api, r, nilTrigger)
				}
			}()
			c.arrive()
		}()
	}
}

// TestPostponedCopyMatchesPartner: a postponed waiter keeps its own copy
// of the caller's trigger, the copy still matches its partner, and the
// hit callback receives copies that carry both sides' names and objects.
func TestPostponedCopyMatchesPartner(t *testing.T) {
	e := newTestEngine()
	type sides struct{ arriving, postponed Trigger }
	seen := make(chan sides, 1)
	e.SetOnHit(func(_ string, arriving, postponed Trigger) { seen <- sides{arriving, postponed} })
	a, b := new(int), new(int)
	pairs := []struct {
		name        string
		first, then Trigger
	}{
		{"copy.conflict", NewConflictTrigger("copy.conflict", a), NewConflictTrigger("copy.conflict", a)},
		{"copy.atomicity", NewAtomicityTrigger("copy.atomicity", a), NewAtomicityTrigger("copy.atomicity", a)},
		{"copy.notify", NewNotifyTrigger("copy.notify", a), NewNotifyTrigger("copy.notify", a)},
		{"copy.deadlock", NewDeadlockTrigger("copy.deadlock", a, b), NewDeadlockTrigger("copy.deadlock", b, a)},
		{"copy.pred", NewPredTrigger("copy.pred", a, nil, nil),
			NewPredTrigger("copy.pred", b, nil, func(o *PredTrigger) bool { return o.State == a })},
	}
	for _, p := range pairs {
		done := make(chan Outcome, 1)
		go func() { done <- e.TriggerOutcome(p.first, true, Options{Timeout: 5 * time.Second}) }()
		for e.PostponedCount(p.name) == 0 {
			time.Sleep(time.Millisecond)
		}
		if out := e.TriggerOutcome(p.then, false, Options{Timeout: 5 * time.Second}); out != OutcomeHit {
			t.Fatalf("%s: arriving side %v, want hit", p.name, out)
		}
		if out := <-done; out != OutcomeHit {
			t.Fatalf("%s: postponed side %v, want hit", p.name, out)
		}
		got := <-seen
		for _, s := range []struct {
			side      string
			got, want Trigger
		}{{"arriving", got.arriving, p.then}, {"postponed", got.postponed, p.first}} {
			if s.got == s.want {
				t.Errorf("%s: the callback got the caller's %s trigger, want a copy", p.name, s.side)
			}
			if !sameTrigger(s.got, s.want) {
				t.Errorf("%s: %s copy %+v, want %+v", p.name, s.side, s.got, s.want)
			}
		}
	}
}

// sameTrigger reports whether x and y are of one class with equal
// names and referenced objects.
func sameTrigger(x, y Trigger) bool {
	switch x := x.(type) {
	case *ConflictTrigger:
		y, ok := y.(*ConflictTrigger)
		return ok && *x == *y
	case *DeadlockTrigger:
		y, ok := y.(*DeadlockTrigger)
		return ok && *x == *y
	case *PredTrigger:
		y, ok := y.(*PredTrigger)
		return ok && x.name == y.name && x.State == y.State
	}
	return false
}

func TestOnHitCallback(t *testing.T) {
	e := newTestEngine()
	var called atomic.Int32
	var gotName atomic.Value
	e.SetOnHit(func(name string, arriving, postponed Trigger) {
		called.Add(1)
		gotName.Store(name)
		if arriving == nil || postponed == nil {
			t.Error("nil triggers in OnHit")
		}
	})
	obj := new(int)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); e.TriggerHere(NewConflictTrigger("cb-bp", obj), true, Options{}) }()
	go func() { defer wg.Done(); e.TriggerHere(NewConflictTrigger("cb-bp", obj), false, Options{}) }()
	wg.Wait()
	if called.Load() != 1 {
		t.Fatalf("OnHit called %d times, want 1", called.Load())
	}
	if gotName.Load().(string) != "cb-bp" {
		t.Fatalf("OnHit name = %v", gotName.Load())
	}
	// Removing the callback stops notifications.
	e.SetOnHit(nil)
	wg.Add(2)
	go func() { defer wg.Done(); e.TriggerHere(NewConflictTrigger("cb-bp2", obj), true, Options{}) }()
	go func() { defer wg.Done(); e.TriggerHere(NewConflictTrigger("cb-bp2", obj), false, Options{}) }()
	wg.Wait()
	if called.Load() != 1 {
		t.Fatal("OnHit fired after removal")
	}
}

func TestEventStrings(t *testing.T) {
	kinds := map[EventKind]string{
		EventArrived: "arrived", EventPostponed: "postponed",
		EventHit: "hit", EventTimeout: "timeout", EventKind(9): "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
	ev := Event{Kind: EventHit, Breakpoint: "b", GID: 3, First: true}
	if !strings.Contains(ev.String(), "b hit g3 (first side)") {
		t.Fatalf("event string = %q", ev.String())
	}
}

func TestMultiHitEmitsEvent(t *testing.T) {
	e := newTestEngine()
	var called atomic.Int32
	e.SetOnHit(func(name string, a, p Trigger) { called.Add(1) })
	obj := new(int)
	var wg sync.WaitGroup
	for slot := 0; slot < 3; slot++ {
		slot := slot
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.TriggerHereMulti(NewConflictTrigger("multi-ev", obj), slot, 3,
				Options{Timeout: 2 * time.Second})
		}()
	}
	wg.Wait()
	if called.Load() != 1 {
		t.Fatalf("multi OnHit = %d, want 1", called.Load())
	}
}
