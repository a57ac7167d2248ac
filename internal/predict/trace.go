// Package predict implements predictive race analysis as a breakpoint
// factory: the upgrade of the paper's Methodology I/II from *observed*
// conflicts to *predicted* ones.
//
// The pipeline has four stages, mirrored by cmd/cbpredict:
//
//  1. Record: a Recorder attaches to the instrumented substrates
//     (memory.Tracer for cell accesses, locks.Observer for mutex
//     transitions) and journals every event into the CRC-framed write-ahead journal of
//     internal/journal, tagged with the observing goroutine's vector
//     clock (internal/vclock).
//
//  2. Predict: a sync-aware predictor replays the trace and reports
//     conflicting access pairs that are UNORDERED once scheduling-only
//     lock orderings are discounted — races that did not occur in the
//     observed interleaving but are reachable in a reordering of it
//     (the sync-preserving prediction family of Mathur, Pavlogiannis
//     and Viswanathan; see docs/DESIGN.md §15 for the exact closure).
//
//  3. Emit: predicted pairs compile into ConflictTrigger plans — JSON
//     configs naming a breakpoint, the shared cell, and the two access
//     sites.
//
//  4. Verify: an Armer re-runs the workload with the plan's trigger
//     armed at both sites; a hit means the manufactured schedule
//     actually reached the predicted conflict state.
//
// The existing detectors in internal/detect serve as a soundness
// oracle (oracle.go): every race FastTrack observed must be predicted,
// and every predicted pair must carry the inconsistent locksets the
// Eraser lockset algorithm flags.
package predict

import (
	"encoding/json"
	"fmt"

	"cbreak/internal/journal"
	"cbreak/internal/vclock"
)

// EventKind labels one trace event.
type EventKind string

// Trace event kinds. Access and lock events carry the cell/lock name in
// Obj; fork/join carry the child goroutine in Child.
const (
	// EvRead and EvWrite are memory-cell accesses (memory.Tracer).
	EvRead  EventKind = "read"
	EvWrite EventKind = "write"
	// EvAcquire and EvRelease are mutex transitions (locks.Observer).
	EvAcquire EventKind = "acquire"
	EvRelease EventKind = "release"
	// EvFork and EvJoin are goroutine creation/join edges, recorded by
	// the workload via Recorder.Fork/Join.
	EvFork EventKind = "fork"
	EvJoin EventKind = "join"
)

// Event is one journaled trace record: per-goroutine streams are
// interleaved in observed order (the journal LSN is the global order)
// and every event carries the recording-time vector clock of its
// goroutine, so the observed happens-before relation travels with the
// trace.
type Event struct {
	// Seq is the event's position in the recorded total order.
	Seq uint64 `json:"seq"`
	// Gid is the goroutine the event belongs to.
	Gid uint64 `json:"gid"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Obj names the touched object: cell name for read/write, lock
	// name for acquire/release.
	Obj string `json:"obj,omitempty"`
	// Site is the source label of the operation ("mysql:lsn").
	Site string `json:"site,omitempty"`
	// Child is the forked/joined goroutine for fork/join events.
	Child uint64 `json:"child,omitempty"`
	// Clock is the goroutine's vector clock at the event (after the
	// event's own tick), under the full observed happens-before order.
	Clock vclock.VC `json:"clock"`
}

// Trace is a fully decoded recording.
type Trace struct {
	// Events in recorded order.
	Events []Event
}

// Gids returns the distinct goroutine ids appearing in the trace, in
// first-appearance order.
func (t *Trace) Gids() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, e := range t.Events {
		if !seen[e.Gid] {
			seen[e.Gid] = true
			out = append(out, e.Gid)
		}
	}
	return out
}

// Load replays a recorded trace from its journal directory. Torn tails
// (a recording killed mid-write) are truncated by the journal's
// recovery, so a crash during recording costs at most the final event.
func Load(dir string) (*Trace, error) {
	tr := &Trace{}
	_, err := journal.Replay(dir, func(lsn uint64, payload []byte) error {
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return fmt.Errorf("predict: record %d: %w", lsn, err)
		}
		tr.Events = append(tr.Events, ev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}
