// Package telemetry is the typed observability core of the breakpoint
// engine: one metric catalog declared once (counter/gauge/histogram
// descriptors with stable names, labels, and help text), one
// subscription bus the engine publishes its records into, and one
// registry that binds the catalog to live lock-free collection.
//
// The bus carries two record kinds, the same two the durable journal
// sink writes to disk:
//
//	emitters                     bus                    consumers
//	engine events       ─┐                        ┌─ durable journal sink (tap)
//	guard incidents     ─┴─▶  telemetry.Bus  ────┼─ NDJSON stream (subscription)
//	                                              └─ registry counters (tap)
//
//	sharded engine state ──▶ registry collectors ──▶ /metrics text
//
// A wait-graph finding is a guard incident like any other: a confirmed
// deadlock is one deadlock-confirmed record and a broken postponement
// stall one cycle-break record, so each fact is recorded once, in one
// shape, live and on disk.
//
// The split matters: *streams* (events and incidents) go through the
// bus as they happen; *metrics* are pulled at scrape time by
// collectors that read the engine's existing atomic counters, so the
// trigger hot path acquires no new lock and pays one atomic pointer
// load when nobody is listening: the engine then builds no event at
// all (Bus.Listening).
//
// Layering: this package imports only internal/guard and the standard
// library. internal/core imports it (Event and EventKind live here and
// are aliased back into core) and is the bus's only publisher; other
// layers record incidents through the engine. cmd/cbserverd serves the
// registry and the bus over HTTP.
package telemetry

import (
	"fmt"
	"time"

	"cbreak/internal/guard"
)

// EventKind classifies an engine event.
type EventKind int

// Engine event kinds.
const (
	// EventArrived: a goroutine called TriggerHere.
	EventArrived EventKind = iota
	// EventPostponed: the goroutine entered the postponed set.
	EventPostponed
	// EventHit: a breakpoint rendezvoused.
	EventHit
	// EventTimeout: a postponement expired without a partner.
	EventTimeout
)

// String returns the event-kind label.
func (k EventKind) String() string {
	switch k {
	case EventArrived:
		return "arrived"
	case EventPostponed:
		return "postponed"
	case EventHit:
		return "hit"
	case EventTimeout:
		return "timeout"
	default:
		return "unknown"
	}
}

// Event is one breakpoint event as the engine publishes it. It is the
// canonical engine-event shape: internal/core aliases it (core.Event)
// and every bus consumer — the durable journal sink, the NDJSON
// stream, the registry's stream counters — sees the same value. The
// engine keeps no copy: an event exists only if a listener was
// attached when it happened.
type Event struct {
	// Seq is the engine-wide event sequence number; it totally orders
	// events across breakpoints (When has only clock resolution). It
	// counts published events only, so a listener attached before the
	// first arrival sees 1, 2, 3, ... with no gaps.
	Seq uint64
	// When is the event timestamp.
	When time.Time
	// Kind classifies the event.
	Kind EventKind
	// Breakpoint is the breakpoint name.
	Breakpoint string
	// GID is the goroutine involved.
	GID uint64
	// First reports the breakpoint side.
	First bool
}

// String formats the event for logs.
func (ev Event) String() string {
	side := "second"
	if ev.First {
		side = "first"
	}
	return fmt.Sprintf("%s %s g%d (%s side)", ev.Breakpoint, ev.Kind, ev.GID, side)
}

// RecordKind discriminates bus records.
type RecordKind uint8

// Bus record kinds.
const (
	// RecordEvent: an engine event (Record.Event is valid).
	RecordEvent RecordKind = iota
	// RecordIncident: a guard incident (Record.Incident is valid).
	RecordIncident
)

// NumRecordKinds is the number of bus record kinds.
const NumRecordKinds = int(RecordIncident) + 1

// String returns the record-kind label, which doubles as the "kind"
// discriminator of the NDJSON encoding and of the durable sink's
// on-disk records.
func (k RecordKind) String() string {
	switch k {
	case RecordEvent:
		return "engine-event"
	case RecordIncident:
		return "guard-incident"
	default:
		return "unknown"
	}
}

// Record is one telemetry bus message. Exactly one payload field is
// meaningful, selected by Kind; payloads are values, not pointers, so
// publishing allocates nothing.
type Record struct {
	Kind     RecordKind
	Event    Event
	Incident guard.Incident
}
