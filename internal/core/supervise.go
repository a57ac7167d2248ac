package core

import (
	"time"

	"cbreak/internal/guard"
)

// This file is the engine's supervision surface: waiter enumeration for
// the wait-graph supervisor (internal/waitgraph) and the single forced-
// release path shared by the watchdog and the supervisor.
//
// Forced release is deliberately funneled through one helper,
// forceReleaseShard: a waiter leaves its shard's postponed set, under
// the shard mutex, as soon as it stops waiting, and releases only ever
// touch that set, so a release is idempotent. The watchdog, a
// cycle-breaking supervisor, and a racing Reset can all target the same
// goroutine without a double close or a double count.

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

// releasedWaiter identifies one waiter freed by a forced release.
type releasedWaiter struct {
	gid      uint64
	deadline time.Time
}

// forceReleaseShard force-releases every postponed waiter on s matched
// by the predicate, with a timeout outcome — the released goroutine
// observes exactly what an expired postponement budget would have
// produced, which is the paper's safety argument for early release.
// This is the only forced-release path: the watchdog and ForceRelease
// both go through it, and because it only touches waiters still in the
// postponed set, concurrent releases of the same waiter are idempotent.
func (e *Engine) forceReleaseShard(s *bpState, match func(gid uint64, deadline time.Time) bool) []releasedWaiter {
	var out []releasedWaiter
	s.mu.Lock()
	for _, w := range s.postponed {
		if match(w.gid, w.deadline) {
			w.cancel(OutcomeTimeout)
			out = append(out, releasedWaiter{w.gid, w.deadline})
		}
	}
	s.prune()
	s.mu.Unlock()
	return out
}

// ForceRelease releases the goroutine gid postponed on the named
// breakpoint, if it is still postponed, recording an incident of the
// given kind. It reports whether a waiter was actually released: false
// means the goroutine had already been matched, timed out, or released
// by another mechanism (watchdog, Reset), so callers can treat the
// release as exactly-once.
func (e *Engine) ForceRelease(name string, gid uint64, kind guard.IncidentKind, detail string) bool {
	s, ok := e.lookupShard(name)
	if !ok {
		return false
	}
	rel := e.forceReleaseShard(s, func(g uint64, _ time.Time) bool { return g == gid })
	if len(rel) == 0 {
		return false
	}
	e.recordIncident(kind, name, gid, detail)
	return true
}
