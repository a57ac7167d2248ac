package core

import (
	"sync"

	"cbreak/internal/guard"
	"cbreak/internal/telemetry"
)

// DurableSink receives a copy of every engine event and guard incident
// as it is recorded, so a crashed process leaves a post-mortem trail on
// disk: the engine keeps no events in memory, and its incident log
// dies with the heap. The
// canonical implementation is internal/journal/sink, which frames each
// entry as JSON in a crash-safe write-ahead journal.
//
// SetDurableSink attaches the sink to the engine's telemetry bus as a
// synchronous tap, the same bus live NDJSON streams and metric counters
// subscribe to. Sinks are called synchronously on the hot path (the
// goroutine hitting the breakpoint), so they must be fast and must
// never call back into the engine. A journal sink should use
// SyncInterval or SyncNone unless per-event durability is genuinely
// worth an fsync per breakpoint arrival. Sink errors are the sink's own
// problem: the engine ignores them, because breakpoint semantics must
// not change when a disk fills.
type DurableSink interface {
	RecordEvent(Event)
	RecordIncident(guard.Incident)
}

// sinkTap adapts a DurableSink to the telemetry bus: events and
// incidents, the bus's two record kinds, are forwarded synchronously.
type sinkTap struct {
	s DurableSink
}

// Deliver implements telemetry.Tap.
func (t sinkTap) Deliver(rec telemetry.Record) {
	switch rec.Kind {
	case telemetry.RecordEvent:
		t.s.RecordEvent(rec.Event)
	case telemetry.RecordIncident:
		t.s.RecordIncident(rec.Incident)
	}
}

// durableState tracks the currently attached sink's bus tap so
// SetDurableSink can replace or remove it.
type durableState struct {
	mu  sync.Mutex
	tap *telemetry.TapHandle
}

// SetDurableSink installs (or, with nil, removes) the engine's durable
// event/incident sink by (re)attaching it as a synchronous tap on the
// engine's telemetry bus. Safe to call concurrently with trigger
// traffic; events recorded while the swap is in flight may go to either
// sink.
func (e *Engine) SetDurableSink(s DurableSink) {
	e.durable.mu.Lock()
	defer e.durable.mu.Unlock()
	if e.durable.tap != nil {
		e.durable.tap.Detach()
		e.durable.tap = nil
	}
	if s != nil {
		e.durable.tap = e.bus.AttachTap(sinkTap{s: s})
	}
}

// DurableSinkInstalled reports whether a durable sink is attached.
func (e *Engine) DurableSinkInstalled() bool {
	e.durable.mu.Lock()
	defer e.durable.mu.Unlock()
	return e.durable.tap != nil
}
