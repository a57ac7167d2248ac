// Package telemetry is the typed observability core of the breakpoint
// engine: one metric catalog declared once (counter/gauge/histogram
// descriptors with stable names, labels, and help text), one
// subscription bus every emission path publishes into, and one registry
// that binds the catalog to live lock-free collection.
//
// Before this package the engine's introspection was smeared across
// five ad-hoc surfaces — BPStats snapshots, per-shard event rings,
// the guard incident log, wait-graph supervisor reports, and the
// durable journal sinks — each with its own bespoke fan-out. Now there
// is exactly one flow:
//
//	emitters                     bus                    consumers
//	engine events       ─┐                        ┌─ durable journal sink (tap)
//	guard incidents     ─┼─▶  telemetry.Bus  ────┼─ NDJSON stream (subscription)
//	wait-graph reports  ─┤                        └─ registry counters (tap)
//	campaign trials     ─┘
//
//	sharded engine state ──▶ registry collectors ──▶ /metrics text
//
// The split matters: *streams* (events, incidents, reports, trials) go
// through the bus as they happen; *metrics* are pulled at scrape time
// by collectors that read the engine's existing atomic counters, so the
// trigger hot path acquires no new lock and pays one atomic pointer
// load when nobody is listening: the engine then builds no event at
// all (Bus.Listening).
//
// Layering: this package imports only internal/guard and the standard
// library. internal/core imports it (Event and EventKind live here and
// are aliased back into core), so core, waitgraph, harness, and
// campaign can all publish without an import cycle. cmd/cbserverd
// serves the registry and the bus over HTTP.
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

// Report is the bus shape of one confirmed wait-graph finding. It is a
// deliberately flattened copy of waitgraph.Report (this package sits
// below waitgraph in the import graph), carrying what stream consumers
// and verdict counters need.
type Report struct {
	// When is the confirmation timestamp.
	When time.Time
	// Kind is the waitgraph verdict label ("deadlock" or
	// "postpone-stall").
	Kind string
	// Desc is the human-readable rendering of the finding.
	Desc string
	// Breakpoints are the breakpoint names involved (the postponement
	// edges); empty for an application-only deadlock.
	Breakpoints []string
	// GIDs are the goroutines involved.
	GIDs []uint64
	// Victim is the postponed goroutine a cycle break released (0 for
	// deadlock confirmations).
	Victim uint64
}

// Trial is the bus shape of one executed campaign/harness trial
// outcome.
type Trial struct {
	// When is the trial completion timestamp.
	When time.Time
	// Table, Row, Variant address the trial's measurement configuration
	// (harness.TrialKey).
	Table   string
	Row     int
	Variant string
	// Status is the appkit result-status label ("ok", "stall", "trial
	// timeout", ...).
	Status string
	// Attempts is how many dispatch attempts the trial cost (0 when the
	// executing layer does not track retries).
	Attempts int
	// Elapsed is the trial wall-clock time.
	Elapsed time.Duration
	// Wait is the trial's total breakpoint postponement time.
	Wait time.Duration
}

// RecordKind discriminates bus records.
type RecordKind uint8

// Bus record kinds.
const (
	// RecordEvent: an engine event (Record.Event is valid).
	RecordEvent RecordKind = iota
	// RecordIncident: a guard incident (Record.Incident is valid).
	RecordIncident
	// RecordReport: a confirmed wait-graph finding (Record.Report).
	RecordReport
	// RecordTrial: a finished campaign/harness trial (Record.Trial).
	RecordTrial
)

// NumRecordKinds is the number of bus record kinds.
const NumRecordKinds = int(RecordTrial) + 1

// String returns the record-kind label, which doubles as the "kind"
// discriminator of the NDJSON encoding (matching the durable sink's
// on-disk record kinds for events and incidents).
func (k RecordKind) String() string {
	switch k {
	case RecordEvent:
		return "engine-event"
	case RecordIncident:
		return "guard-incident"
	case RecordReport:
		return "waitgraph-report"
	case RecordTrial:
		return "trial-outcome"
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
	Report   Report
	Trial    Trial
}

// defaultBus carries process-scoped records — campaign/harness trial
// outcomes, which outlive any single trial engine. Engine-scoped
// records (events, incidents, reports) go through each engine's own
// bus.
var defaultBus = NewBus()

// Default returns the process-wide bus for records that are not tied to
// one engine (trial outcomes). Engine streams live on Engine.Bus().
func Default() *Bus { return defaultBus }
