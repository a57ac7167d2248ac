package locks

import (
	"sort"
	"sync"
	"time"
)

// This file exposes the live wait-for graph's lock edges: which
// goroutine is blocked on which instrumented lock, and who owns it.
// wait keeps the registry's record of blocked acquisitions and reports
// the cycles they close to every CycleWatch; WaitEdges snapshots the
// records. The wait-graph supervisor (internal/waitgraph) confirms
// deadlocks from the watched cycles and joins the edges with the
// engine's postponed waiters to find postponement stalls.

// wait records that goroutine gid is about to block acquiring m at
// site, and reports the cycle the wait closes, if any, to every
// registered CycleWatch.
//
// A cycle seen here is a permanent deadlock, not a torn sample: every
// goroutine on it holds a wait record, so it is inside an acquisition
// that has not returned (acquired clears the record only after m.mu is
// locked), and every lock on it has an owner record, so its holder has
// not unlocked it (released clears the record before m.mu is
// unlocked). Each holder is itself waiting on the cycle, so none of
// them can reach its Unlock. Only the wait that closes a cycle can see
// it, so each cycle is reported once.
func (r *registry) wait(gid uint64, m *Mutex, site string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.waiting[gid] = waitRec{m: m, site: site, since: time.Now()}
	if len(r.watches) == 0 {
		return
	}
	// Walk waiter -> owner -> the lock that owner waits on -> its
	// owner. Each goroutine waits on at most one lock and each lock has
	// at most one owner, so the walk ends at a goroutine that is not
	// waiting (its zero record names no lock, and so no owner), returns
	// to gid, or enters a cycle that closed earlier without gid; n, the
	// goroutines on the path, stops it in the last case.
	n := 1
	for g := gid; ; n++ {
		h, ok := r.owners[r.waiting[g].m]
		if !ok || n > len(r.waiting) {
			return
		}
		if h.gid == gid {
			break
		}
		g = h.gid
	}
	cycle := make([]WaitEdge, n)
	for i, g := 0, gid; i < n; i++ {
		cycle[i] = r.edge(g, r.waiting[g])
		g = cycle[i].Owners[0]
	}
	for _, w := range r.watches {
		w.deliver(cycle)
	}
}

// edge builds goroutine gid's wait-for edge from its wait record.
// Caller holds r.mu.
func (r *registry) edge(gid uint64, rec waitRec) WaitEdge {
	e := WaitEdge{Waiter: gid, Lock: rec.m.name, Site: rec.site, Since: rec.since, lock: rec.m}
	if c := rec.m.class; c != nil {
		e.Class = c.Name
	}
	if h, ok := r.owners[rec.m]; ok {
		e.Owners = []uint64{h.gid}
		e.OwnerSite = h.site
	}
	return e
}

// CycleWatch receives every lock cycle that closes while it is
// registered: a set of goroutines each blocked on a lock the next one
// holds, which none of them can leave. The goroutine whose wait closes
// a cycle only queues it here; the watcher takes it on its own
// goroutine.
type CycleWatch struct {
	ready  chan struct{}
	mu     sync.Mutex
	cycles [][]WaitEdge
}

// WatchCycles registers a new CycleWatch. Cycles that closed before it
// was registered are never delivered to it.
func WatchCycles() *CycleWatch {
	w := &CycleWatch{ready: make(chan struct{}, 1)}
	reg.mu.Lock()
	reg.watches = append(reg.watches, w)
	reg.mu.Unlock()
	return w
}

// Ready receives a value after a cycle is queued; then Take returns it.
func (w *CycleWatch) Ready() <-chan struct{} { return w.ready }

// Take returns the queued cycles, oldest first, and empties the queue.
// Each cycle lists one edge per goroutine in wait order, starting at
// the goroutine whose wait closed it: each edge's owner is the next
// edge's waiter, and the last edge's owner is the first edge's waiter.
func (w *CycleWatch) Take() [][]WaitEdge {
	w.mu.Lock()
	defer w.mu.Unlock()
	cs := w.cycles
	w.cycles = nil
	return cs
}

// Stop unregisters the watch. No cycle that closes after Stop returns
// is queued.
func (w *CycleWatch) Stop() {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for i, x := range reg.watches {
		if x == w {
			reg.watches = append(reg.watches[:i], reg.watches[i+1:]...)
			return
		}
	}
}

// deliver queues one cycle. Caller holds reg.mu.
func (w *CycleWatch) deliver(cycle []WaitEdge) {
	w.mu.Lock()
	w.cycles = append(w.cycles, cycle)
	w.mu.Unlock()
	select {
	case w.ready <- struct{}{}:
	default:
	}
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
	// the lock is between holders) and OwnerSite the site label of its
	// acquisition. It is a slice so the edges serve as a successor list
	// for a cycle search.
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
// sorted by waiter gid. The waits and their owners are read under one
// registry lock, so the edges agree with each other; a separate
// HeldAll or Owner call may see a later state.
func WaitEdges() []WaitEdge {
	reg.mu.Lock()
	out := make([]WaitEdge, 0, len(reg.waiting))
	for g, rec := range reg.waiting {
		out = append(out, reg.edge(g, rec))
	}
	reg.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Waiter < out[j].Waiter })
	return out
}
