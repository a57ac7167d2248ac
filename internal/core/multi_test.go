package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestThreeWayRendezvousOrdersAllSlots(t *testing.T) {
	e := newTestEngine()
	obj := new(int)
	var order []int
	var mu sync.Mutex
	record := func(slot int) func() {
		return func() {
			mu.Lock()
			order = append(order, slot)
			mu.Unlock()
		}
	}
	var hits atomic.Int32
	var wg sync.WaitGroup
	// Start in scrambled order; release must follow slot order.
	for _, slot := range []int{2, 0, 1} {
		slot := slot
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e.TriggerHereMultiAnd(NewConflictTrigger("3way", obj), slot, 3,
				Options{Timeout: 2 * time.Second}, record(slot)) {
				hits.Add(1)
			}
		}()
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	if hits.Load() != 3 {
		t.Fatalf("hits = %d, want 3", hits.Load())
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("release order = %v, want [0 1 2]", order)
	}
	if got := e.Stats("3way").Hits(); got != 1 {
		t.Fatalf("group hits = %d, want 1", got)
	}
}

func TestMultiIncompleteGroupTimesOut(t *testing.T) {
	e := newTestEngine()
	obj := new(int)
	var wg sync.WaitGroup
	var hits atomic.Int32
	// Only 2 of 3 slots arrive.
	for _, slot := range []int{0, 1} {
		slot := slot
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e.TriggerHereMulti(NewConflictTrigger("3way-short", obj), slot, 3,
				Options{Timeout: 50 * time.Millisecond}) {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if hits.Load() != 0 {
		t.Fatalf("incomplete group hit: %d", hits.Load())
	}
	if e.PostponedCount("3way-short") != 0 {
		t.Fatal("timed-out waiters leaked")
	}
}

func TestMultiDifferentObjectsDoNotGroup(t *testing.T) {
	e := newTestEngine()
	a, b := new(int), new(int)
	var wg sync.WaitGroup
	var hits atomic.Int32
	objs := []any{a, a, b} // slot 2 disagrees
	for slot := 0; slot < 3; slot++ {
		slot := slot
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e.TriggerHereMulti(NewConflictTrigger("3way-mixed", objs[slot]), slot, 3,
				Options{Timeout: 50 * time.Millisecond}) {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if hits.Load() != 0 {
		t.Fatalf("mixed-object group hit: %d", hits.Load())
	}
}

func TestMultiFourWay(t *testing.T) {
	e := newTestEngine()
	obj := new(int)
	var seq atomic.Int32
	var wrongOrder atomic.Bool
	var wg sync.WaitGroup
	for slot := 0; slot < 4; slot++ {
		slot := slot
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.TriggerHereMultiAnd(NewConflictTrigger("4way", obj), slot, 4,
				Options{Timeout: 2 * time.Second}, func() {
					if int(seq.Add(1))-1 != slot {
						wrongOrder.Store(true)
					}
				})
		}()
	}
	wg.Wait()
	if seq.Load() != 4 {
		t.Fatalf("only %d actions ran", seq.Load())
	}
	if wrongOrder.Load() {
		t.Fatal("actions ran out of slot order")
	}
}

func TestMultiInvalidArityAndSlot(t *testing.T) {
	e := newTestEngine()
	obj := new(int)
	ran := false
	if e.TriggerHereMultiAnd(NewConflictTrigger("bad", obj), 0, 1, Options{}, func() { ran = true }) {
		t.Fatal("arity 1 reported hit")
	}
	if !ran {
		t.Fatal("action skipped on invalid arity")
	}
	if e.TriggerHereMulti(NewConflictTrigger("bad", obj), 3, 3, Options{}) {
		t.Fatal("out-of-range slot reported hit")
	}
	if e.TriggerHereMulti(NewConflictTrigger("bad", obj), -1, 3, Options{}) {
		t.Fatal("negative slot reported hit")
	}
}

func TestMultiDisabledEngine(t *testing.T) {
	e := newTestEngine()
	e.SetEnabled(false)
	ran := false
	if e.TriggerHereMultiAnd(NewConflictTrigger("off", new(int)), 0, 3, Options{}, func() { ran = true }) {
		t.Fatal("disabled engine hit")
	}
	if !ran {
		t.Fatal("action skipped while disabled")
	}
}

func TestMultiResetReleasesWaiters(t *testing.T) {
	e := newTestEngine()
	obj := new(int)
	done := make(chan bool, 1)
	go func() {
		done <- e.TriggerHereMulti(NewConflictTrigger("multi-reset", obj), 0, 3,
			Options{Timeout: time.Hour})
	}()
	waitFor(t, "multi waiter postponed", func() bool {
		return e.PostponedCount("multi-reset") == 1
	})
	e.Reset()
	select {
	case hit := <-done:
		if hit {
			t.Fatal("cancelled multi waiter reported hit")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reset did not release the multi waiter")
	}
}

func TestFirstActionPanicStillReleasesPartner(t *testing.T) {
	e := newTestEngine()
	obj := new(int)
	released := make(chan bool, 1)
	go func() {
		released <- e.TriggerHere(NewConflictTrigger("panic-bp", obj), false,
			Options{Timeout: 5 * time.Second})
	}()
	waitFor(t, "second side postponed", func() bool { return e.PostponedCount("panic-bp") == 1 })
	func() {
		defer func() { recover() }()
		e.TriggerHereAnd(NewConflictTrigger("panic-bp", obj), true,
			Options{Timeout: 5 * time.Second}, func() { panic("guarded instruction threw") })
	}()
	select {
	case hit := <-released:
		if !hit {
			t.Fatal("partner not hit after panicking first action")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("partner stuck after first-action panic")
	}
}

// TestEveryArityPublishesTheSameEvents: an arrival publishes the same
// events at any arity — arrived for each local-false, shed and
// postponed arrival, postponed for each postponed one, then timeout or
// hit.
func TestEveryArityPublishesTheSameEvents(t *testing.T) {
	for _, arity := range []int{2, 3} {
		t.Run(fmt.Sprintf("arity=%d", arity), func(t *testing.T) {
			e := newTestEngine()
			tap := &recordingTap{}
			defer e.Bus().AttachTap(tap).Detach()
			obj := new(int)
			arrive := func(slot int, opts Options) Outcome {
				return e.shard("parity").triggerMulti(NewConflictTrigger("parity", obj), slot, arity, opts, nil)
			}
			var want []EventKind
			expect := func(kinds ...EventKind) {
				t.Helper()
				want = append(want, kinds...)
				waitFor(t, fmt.Sprintf("%d events", len(want)), func() bool { return len(tap.events()) >= len(want) })
				var got []EventKind
				for _, ev := range tap.events() {
					got = append(got, ev.Kind)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("events = %v, want %v", got, want)
				}
			}
			lonely := Options{Timeout: 5 * time.Millisecond}
			long := Options{Timeout: 10 * time.Second}

			if out := arrive(0, Options{ExtraLocal: func() bool { return false }}); out != OutcomeLocalFalse {
				t.Fatalf("local-false arrival: %v", out)
			}
			expect(EventArrived)
			if out := arrive(arity-1, lonely); out != OutcomeTimeout {
				t.Fatalf("lonely arrival: %v", out)
			}
			expect(EventArrived, EventPostponed, EventTimeout)

			// A full group, one slot at a time.
			outs := make(chan Outcome, arity)
			for slot := 0; slot < arity-1; slot++ {
				go func() { outs <- arrive(slot, long) }()
				expect(EventArrived, EventPostponed)
			}
			if out := arrive(arity-1, long); out != OutcomeHit {
				t.Fatalf("completing arrival: %v", out)
			}
			expect(EventArrived, EventHit)
			for i := 0; i < arity-1; i++ {
				if out := <-outs; out != OutcomeHit {
					t.Fatalf("postponed member: %v", out)
				}
			}

			// Lonely timeouts trip the breakpoint; the next arrival is
			// shed. The last one's timeout sets a backoff of 2s.
			e.SetOverloadConfig(&OverloadConfig{TimeoutRate: 0.9})
			for i := 1; i <= tripMinSamples; i++ {
				opts := lonely
				if i == tripMinSamples {
					opts.Timeout = 200 * time.Millisecond
				}
				arrive(0, opts)
				expect(EventArrived, EventPostponed, EventTimeout)
			}
			if out := arrive(0, lonely); out != OutcomeShed {
				t.Fatalf("arrival at a tripped breakpoint: %v", out)
			}
			expect(EventArrived)
		})
	}
}

// TestTwoWayIsArityTwo: TriggerHere's two sides are slots 0 and 1 of an
// arity-2 breakpoint, so a two-way call and a TriggerHereMulti call at
// the other slot of arity 2 hit each other, whichever arrives first.
func TestTwoWayIsArityTwo(t *testing.T) {
	opts := Options{Timeout: 5 * time.Second}
	cases := []struct {
		name                string
		postponed, arriving func(e *Engine, tr Trigger) bool
	}{
		{"TriggerHere first, then slot 1",
			func(e *Engine, tr Trigger) bool { return e.TriggerHere(tr, true, opts) },
			func(e *Engine, tr Trigger) bool { return e.TriggerHereMulti(tr, 1, 2, opts) }},
		{"slot 0, then TriggerHere second",
			func(e *Engine, tr Trigger) bool { return e.TriggerHereMulti(tr, 0, 2, opts) },
			func(e *Engine, tr Trigger) bool { return e.TriggerHere(tr, false, opts) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newTestEngine()
			obj := new(int)
			done := make(chan bool, 1)
			go func() { done <- c.postponed(e, NewConflictTrigger("mixed", obj)) }()
			waitFor(t, "first call postponed", func() bool { return e.PostponedCount("mixed") == 1 })
			if !c.arriving(e, NewConflictTrigger("mixed", obj)) {
				t.Fatal("arriving call missed")
			}
			if !<-done {
				t.Fatal("postponed call missed")
			}
			if got := e.Stats("mixed").Hits(); got != 1 {
				t.Fatalf("hits = %d, want 1", got)
			}
		})
	}
}
