package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestRejectedArrivalsDoNotAllocate: a local-false and a disabled
// arrival through a handle with a pre-built trigger allocate nothing,
// with no listener on the bus and with a tap attached.
func TestRejectedArrivalsDoNotAllocate(t *testing.T) {
	e := newTestEngine()
	on, off := e.Breakpoint("alloc.on"), e.Breakpoint("alloc.off")
	e.SetBreakpointEnabled("alloc.off", false)
	onTrig, offTrig := neverTrigger("alloc.on"), neverTrigger("alloc.off")
	check := func(listener string) {
		t.Helper()
		for _, c := range []struct {
			bp   *Breakpoint
			tr   Trigger
			want Outcome
		}{{on, onTrig, OutcomeLocalFalse}, {off, offTrig, OutcomeDisabled}} {
			if got := c.bp.TriggerOutcome(c.tr, true, Options{}); got != c.want {
				t.Fatalf("%s: outcome %v, want %v", c.bp.Name(), got, c.want)
			}
			if n := testing.AllocsPerRun(1000, func() { c.bp.TriggerOutcome(c.tr, true, Options{}) }); n != 0 {
				t.Errorf("%s arrival, %s: %v allocs, want 0", c.want, listener, n)
			}
		}
	}
	check("no listener")
	h := e.Bus().AttachTap(noopTap{})
	check("one tap")
	h.Detach()
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
