package telemetry

import (
	"encoding/json"
	"io"
	"time"
)

// This file is the NDJSON wire encoding of bus records: one JSON object
// per line, discriminated by "kind". It is also the journal's record
// shape: internal/journal/sink writes the bytes MarshalNDJSON produces
// for events and incidents and replays them into EventJSON and
// IncidentJSON, so a consumer of the live stream and a consumer of a
// replayed post-mortem journal parse the same records.

// EventJSON is the NDJSON shape of an engine-event record.
type EventJSON struct {
	Kind       string    `json:"kind"` // "engine-event"
	Seq        uint64    `json:"seq"`
	When       time.Time `json:"when"`
	Event      string    `json:"event"` // arrived|postponed|hit|timeout
	Breakpoint string    `json:"breakpoint"`
	GID        uint64    `json:"gid"`
	First      bool      `json:"first"`
}

// IncidentJSON is the NDJSON shape of a guard-incident record.
type IncidentJSON struct {
	Kind       string    `json:"kind"` // "guard-incident"
	When       time.Time `json:"when"`
	Incident   string    `json:"incident"` // guard.IncidentKind label
	Breakpoint string    `json:"breakpoint"`
	GID        uint64    `json:"gid"`
	Detail     string    `json:"detail,omitempty"`
}

// ReportJSON is the NDJSON shape of a wait-graph-report record.
type ReportJSON struct {
	Kind        string    `json:"kind"` // "waitgraph-report"
	When        time.Time `json:"when"`
	Report      string    `json:"report"` // deadlock|postpone-stall
	Desc        string    `json:"desc"`
	Breakpoints []string  `json:"breakpoints,omitempty"`
	GIDs        []uint64  `json:"gids,omitempty"`
	Victim      uint64    `json:"victim,omitempty"`
}

// TrialJSON is the NDJSON shape of a trial-outcome record.
type TrialJSON struct {
	Kind      string    `json:"kind"` // "trial-outcome"
	When      time.Time `json:"when"`
	Table     string    `json:"table"`
	Row       int       `json:"row"`
	Variant   string    `json:"variant"`
	Status    string    `json:"status"`
	Attempts  int       `json:"attempts,omitempty"`
	ElapsedNS int64     `json:"elapsed_ns"`
	WaitNS    int64     `json:"wait_ns"`
}

// MarshalNDJSON returns the record's NDJSON object (no trailing
// newline).
func MarshalNDJSON(rec Record) ([]byte, error) {
	var v any
	switch rec.Kind {
	case RecordEvent:
		ev := rec.Event
		v = EventJSON{
			Kind: rec.Kind.String(), Seq: ev.Seq, When: ev.When,
			Event: ev.Kind.String(), Breakpoint: ev.Breakpoint,
			GID: ev.GID, First: ev.First,
		}
	case RecordIncident:
		in := rec.Incident
		v = IncidentJSON{
			Kind: rec.Kind.String(), When: in.When, Incident: in.Kind.String(),
			Breakpoint: in.Breakpoint, GID: in.GID, Detail: in.Detail,
		}
	case RecordReport:
		rp := rec.Report
		v = ReportJSON{
			Kind: rec.Kind.String(), When: rp.When, Report: rp.Kind,
			Desc: rp.Desc, Breakpoints: rp.Breakpoints, GIDs: rp.GIDs,
			Victim: rp.Victim,
		}
	case RecordTrial:
		tr := rec.Trial
		v = TrialJSON{
			Kind: rec.Kind.String(), When: tr.When, Table: tr.Table,
			Row: tr.Row, Variant: tr.Variant, Status: tr.Status,
			Attempts: tr.Attempts, ElapsedNS: int64(tr.Elapsed),
			WaitNS: int64(tr.Wait),
		}
	default:
		v = struct {
			Kind string `json:"kind"`
		}{Kind: rec.Kind.String()}
	}
	return json.Marshal(v)
}

// WriteNDJSON writes the record as one NDJSON line (object plus
// newline).
func WriteNDJSON(w io.Writer, rec Record) error {
	b, err := MarshalNDJSON(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
