package core

import (
	"time"

	"cbreak/internal/telemetry"
)

// This file adds observability to the engine: breakpoint events on the
// engine's telemetry bus and a hit callback. The paper's example
// trigger classes print "Conflict" / "Deadlock" from predicateGlobal
// when a breakpoint is reached (Figures 6 and 8); OnHit is the
// structured version of that hook, and the event stream gives a
// debugger the breakpoint history of a run.
//
// The engine keeps no event history of its own. The bus is the
// history: a test attaches a recording tap, a live feed subscribes
// (cbserverd /stream), a post-mortem reads the durable sink. An engine
// nobody listens to builds no event at all — no sequence number, no
// clock read — so a refined breakpoint's rejected arrival pays one
// atomic load for its telemetry.
//
// The event shape itself lives in internal/telemetry, which sits below
// this package in the import graph; the names are aliased here so the
// engine's callers write core.Event and core.EventHit.

// EventKind classifies an engine event. It is internal/telemetry's
// EventKind; see that package for the canonical definition.
type EventKind = telemetry.EventKind

// Engine event kinds, re-exported from internal/telemetry.
const (
	// EventArrived: a goroutine called TriggerHere.
	EventArrived = telemetry.EventArrived
	// EventPostponed: the goroutine entered the postponed set.
	EventPostponed = telemetry.EventPostponed
	// EventHit: a breakpoint rendezvoused.
	EventHit = telemetry.EventHit
	// EventTimeout: a postponement expired without a partner.
	EventTimeout = telemetry.EventTimeout
)

// Event is one engine event (telemetry.Event: the same value flows to
// every bus consumer — durable journal sink, NDJSON stream, metric
// counters).
type Event = telemetry.Event

// onHitBox wraps the hit callback for atomic storage on the engine.
type onHitBox struct {
	f func(name string, arriving, postponed Trigger)
}

// SetOnHit installs a callback invoked (synchronously, on the arriving
// goroutine) whenever a breakpoint is hit, with both sides' triggers —
// the structured analog of the paper's "Conflict"/"Deadlock" println.
// At a multi-way hit, postponed is the lowest slot's waiter. The
// callback runs outside the engine's locks, so it may call back into the
// engine (PostponedCount, ForceRelease, Reset), and it receives copies
// of the triggers that the engine makes for it, not the caller's
// values. It runs before any side of the hit proceeds: the postponed
// sides wait for it to return (or panic), past their timeouts if need
// be, so a slow callback delays the hit but keeps its order. Pass nil
// to remove.
func (e *Engine) SetOnHit(f func(name string, arriving, postponed Trigger)) {
	if f == nil {
		e.onHit.Store(nil)
		return
	}
	e.onHit.Store(&onHitBox{f: f})
}

// run calls the hit callback with copies of the triggers, then hands
// the group's waiters their turns, also when the callback panics.
func (b *onHitBox) run(name string, arriving, postponed Trigger, matched []handoff) {
	defer deliver(matched)
	b.f(name, heapCopy(arriving), postponed)
}

// logEvent publishes one event on the engine's telemetry bus — the
// single fan-out behind the durable journal sink, live NDJSON streams,
// and stream metric counters. With no listener it returns after one
// atomic load: the sequence number and the timestamp are taken only
// for an event somebody receives.
func (e *Engine) logEvent(s *bpState, kind EventKind, gid uint64, first bool) {
	if !e.bus.Listening() {
		return
	}
	e.bus.Publish(telemetry.Record{Kind: telemetry.RecordEvent, Event: Event{
		Seq: e.eventSeq.Add(1), When: time.Now(),
		Kind: kind, Breakpoint: s.name, GID: gid, First: first}})
}
