// Package sink adapts the crash-safe write-ahead journal
// (internal/journal) to the engine's DurableSink interface: every
// engine event and guard incident is framed as one JSON record, the
// telemetry package's NDJSON object for it (telemetry.MarshalNDJSON),
// so a post-mortem on a crashed trial replays the breakpoint history
// the process took with it, in the shape the live stream serves.
//
// Payloads are JSON text inside the journal's binary frames, so the
// usual field tricks work on raw segments: `grep -a '"panic"'
// <dir>/seg-*.wal` finds absorbed panics without any tooling.
package sink

import (
	"encoding/json"
	"fmt"
	"sync"

	"cbreak/internal/core"
	"cbreak/internal/guard"
	"cbreak/internal/journal"
	"cbreak/internal/telemetry"
)

// Sink journals engine events and guard incidents. It implements
// core.DurableSink and is safe for concurrent use (the journal
// serializes appends). Per the DurableSink contract the engine ignores
// sink failures, so the Sink swallows append errors after remembering
// the first one; check Err after the run.
type Sink struct {
	j *journal.Journal

	mu  sync.Mutex
	err error
}

// Open opens (creating or continuing) the sink journal in dir. Interval
// group-commit is the recommended policy: events are produced at
// breakpoint-arrival rate, and an fsync each would serialize the very
// schedules the engine exists to explore.
func Open(dir string, pol journal.SyncPolicy) (*Sink, error) {
	return OpenOptions(journal.Options{Dir: dir, Sync: pol})
}

// OpenOptions opens the sink over a fully-specified journal — the seam
// the chaos scenarios use to mount a fault-injecting FS (journal.CrashFS)
// under a live app worker's telemetry journal.
func OpenOptions(opts journal.Options) (*Sink, error) {
	j, err := journal.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("sink: %w", err)
	}
	return &Sink{j: j}, nil
}

// RecordEvent journals one engine event (core.DurableSink).
func (s *Sink) RecordEvent(ev core.Event) {
	s.append(telemetry.Record{Kind: telemetry.RecordEvent, Event: ev})
}

// RecordIncident journals one guard incident (core.DurableSink).
func (s *Sink) RecordIncident(in guard.Incident) {
	s.append(telemetry.Record{Kind: telemetry.RecordIncident, Incident: in})
}

func (s *Sink) append(rec telemetry.Record) {
	payload, err := telemetry.MarshalNDJSON(rec)
	if err == nil {
		_, err = s.j.Append(payload)
	}
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
	}
}

// Err returns the first append failure, if any — typically the
// journal's sticky error after a disk problem.
func (s *Sink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Len returns how many records the journal holds.
func (s *Sink) Len() uint64 { return s.j.Len() }

// Sync flushes every buffered record to stable storage without closing
// the journal. Long-running daemons call it at drain time, before the
// admin→proxy→app teardown severs the paths that produce records, so a
// SIGTERM loses nothing the interval group-commit was still holding.
func (s *Sink) Sync() error { return s.j.Sync() }

// Close syncs and closes the journal.
func (s *Sink) Close() error { return s.j.Close() }

// Entry is one replayed sink record: exactly one of Event or Incident
// is non-nil.
type Entry struct {
	LSN      uint64
	Event    *telemetry.EventJSON
	Incident *telemetry.IncidentJSON
}

// Replay reads a sink journal for post-mortem analysis. The journal
// layer has already dropped any torn tail, so every entry here was
// written whole; an unknown kind is an error (schema drift, not
// corruption).
func Replay(dir string, fn func(Entry) error) (journal.RecoveryInfo, error) {
	return journal.Replay(dir, func(lsn uint64, payload []byte) error {
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(payload, &probe); err != nil {
			return fmt.Errorf("sink: record %d does not parse: %v", lsn, err)
		}
		switch probe.Kind {
		case telemetry.RecordEvent.String():
			var rec telemetry.EventJSON
			if err := json.Unmarshal(payload, &rec); err != nil {
				return fmt.Errorf("sink: event record %d: %v", lsn, err)
			}
			return fn(Entry{LSN: lsn, Event: &rec})
		case telemetry.RecordIncident.String():
			var rec telemetry.IncidentJSON
			if err := json.Unmarshal(payload, &rec); err != nil {
				return fmt.Errorf("sink: incident record %d: %v", lsn, err)
			}
			return fn(Entry{LSN: lsn, Incident: &rec})
		default:
			return fmt.Errorf("sink: record %d has unknown kind %q", lsn, probe.Kind)
		}
	})
}
