package locks

import (
	"sort"
	"time"
)

// This file exposes the live wait-for graph's lock edges: which
// goroutine is blocked on which instrumented lock, and who owns it.
// setWaiting keeps the registry's record of blocked acquisitions, and
// WaitEdges snapshots it. The wait-graph supervisor
// (internal/waitgraph) joins these edges with the engine's postponed
// waiters to find live deadlocks and postponement stalls.

// setWaiting records (or, with a nil m, clears) the Mutex goroutine gid
// is currently blocked on. It lives in the same registry as the held
// sets.
func (r *registry) setWaiting(gid uint64, m *Mutex, site string) {
	r.mu.Lock()
	if r.waiting == nil {
		r.waiting = make(map[uint64]waitRec)
	}
	if m == nil {
		delete(r.waiting, gid)
	} else {
		r.waiting[gid] = waitRec{m: m, site: site, since: time.Now()}
	}
	r.mu.Unlock()
}

// WaitEdge is one exported edge of the live wait-for graph: a blocked
// goroutine, the lock it is blocked on, and the goroutine that
// currently owns that lock.
type WaitEdge struct {
	// Waiter is the blocked goroutine.
	Waiter uint64
	// Lock is the contested lock's name and Class its class name ("" if
	// untagged).
	Lock  string
	Class string
	// Site is the source-site label of the blocked acquisition and
	// Since when the wait began.
	Site  string
	Since time.Time
	// Owners holds the goroutine currently holding the lock (empty if
	// it was released while the snapshot was assembled) and OwnerSite
	// the site label of its acquisition. It is a slice so the edges
	// serve as a successor list for a cycle search.
	Owners    []uint64
	OwnerSite string

	// lock keeps the Mutex identity so edges can be joined against
	// HeldAll snapshots by pointer.
	lock *Mutex
}

// Mutex returns the contested lock's identity, for joining edges
// against HeldAll snapshots.
func (e WaitEdge) Mutex() *Mutex { return e.lock }

// WaitEdges snapshots the live wait-for graph's lock edges: one edge
// per goroutine currently blocked inside an instrumented acquisition,
// sorted by waiter gid. Ownership is resolved after the registry
// snapshot is taken, so an edge may report no owners if the lock was
// handed over concurrently — consumers must treat edges as a sample,
// not a transaction.
func WaitEdges() []WaitEdge {
	reg.mu.Lock()
	recs := make(map[uint64]waitRec, len(reg.waiting))
	for g, rec := range reg.waiting {
		recs[g] = rec
	}
	reg.mu.Unlock()

	gids := make([]uint64, 0, len(recs))
	for g := range recs {
		gids = append(gids, g)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })

	out := make([]WaitEdge, 0, len(gids))
	for _, g := range gids {
		rec := recs[g]
		class := ""
		if c := rec.m.Class(); c != nil {
			class = c.Name
		}
		owner, ownerSite := rec.m.Owner()
		e := WaitEdge{
			Waiter: g, Lock: rec.m.Name(), Class: class,
			Site: rec.site, Since: rec.since, OwnerSite: ownerSite,
			lock: rec.m,
		}
		if owner != 0 {
			e.Owners = []uint64{owner}
		}
		out = append(out, e)
	}
	return out
}
