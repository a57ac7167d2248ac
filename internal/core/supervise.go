package core

import (
	"time"

	"cbreak/internal/guard"
)

// This file is the engine's supervision surface: waiter enumeration for
// the wait-graph supervisor (internal/waitgraph) and forced release,
// which the supervisor's cycle breaks and cbserverd's admin /release
// share. A cycle break, an admin release, a racing Reset and the
// waiter's own timeout can all target the same goroutine without a
// double close or a double count.

// PostponedWaiter describes one currently-postponed goroutine, as seen
// by the wait-graph supervisor: which breakpoint it is parked on, which
// side/slot it arrived at, and when its postponement budget expires.
type PostponedWaiter struct {
	// Breakpoint is the breakpoint name the goroutine is postponed on.
	Breakpoint string
	// GID is the postponed goroutine.
	GID uint64
	// Slot is the arrival's slot and Arity the breakpoint's arity; a
	// two-way breakpoint has arity 2, its first-action side at slot 0
	// and its second at slot 1.
	Slot, Arity int
	// Deadline is when the postponement budget expires.
	Deadline time.Time
}

// PostponedWaiters snapshots every currently-postponed goroutine across
// all shards. The snapshot locks one shard at a time, so assembling it
// never stops the world; entries may be stale by the time the caller
// acts on them, which forced release tolerates.
func (e *Engine) PostponedWaiters() []PostponedWaiter {
	var out []PostponedWaiter
	for _, s := range e.shards() {
		s.mu.Lock()
		for _, w := range s.postponed {
			out = append(out, PostponedWaiter{Breakpoint: s.name, GID: w.gid,
				Slot: w.slot, Arity: w.arity, Deadline: w.deadline})
		}
		s.mu.Unlock()
	}
	return out
}

// ForceRelease releases the goroutine gid postponed on the named
// breakpoint, if it is still postponed, with a timeout outcome — the
// released goroutine observes exactly what an expired postponement
// budget would have produced, which is the paper's safety argument for
// early release — and records an incident of the given kind. It reports
// whether a waiter was actually released: false means the goroutine had
// already been matched, timed out, or released by Reset or another
// ForceRelease. The release claims the waiter under the shard mutex,
// taking it out of the postponed set so no match, timeout, Reset or
// second release can take it, and callers can treat it as
// exactly-once. It records the incident before it wakes the waiter, so
// whoever sees the waiter return sees the incident too.
func (e *Engine) ForceRelease(name string, gid uint64, kind guard.IncidentKind, detail string) bool {
	s, ok := e.lookupShard(name)
	if !ok {
		return false
	}
	var claimed *waiter
	s.mu.Lock()
	for _, w := range s.postponed {
		if w.gid == gid {
			w.state = waiterCancelled
			w.cancelOutcome = OutcomeTimeout
			claimed = w
		}
	}
	s.prune()
	s.mu.Unlock()
	if claimed == nil {
		return false
	}
	e.recordIncident(kind, name, gid, detail)
	close(claimed.cancelCh)
	return true
}
