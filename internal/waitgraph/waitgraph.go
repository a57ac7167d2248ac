// Package waitgraph assembles a live wait-for graph of the program
// under test and runs cycle and stall detection over it. It is the
// reproduction's self-healing layer: the paper's safety argument is
// that a breakpoint "never postpones a thread forever" because of the
// timeout, but inside deliberately-deadlocking programs (mysql, jigsaw)
// a postponed goroutine holding a locks.Mutex wedges its partners for
// the full timeout on every trial — and an application-only lock cycle
// wedges them until the trial deadline. The wait graph turns both
// pathologies into structured diagnoses in milliseconds:
//
//   - an application-only lock cycle is reported as a confirmed
//     deadlock (ReportDeadlock), naming the exact goroutines, locks,
//     classes, and wait sites in the cycle;
//   - a postponed goroutine whose held locks (transitively) block other
//     goroutines is reported as a postponement stall
//     (ReportPostponeStall), and the supervisor breaks the cycle by
//     force-releasing the postponed goroutine early — safe by the
//     paper's own timeout argument, since early release is
//     indistinguishable from an expired budget.
//
// Edges come from two sources: the locks registry's waiter map
// (goroutine → mutex → owner) and the engine's postponed sets
// (goroutine → breakpoint shard; one set per shard holds the waiters of
// every slot and arity, a two-way breakpoint having arity 2).
//
// The supervisor takes the two findings from different places. The
// locks registry sees a lock cycle close under its own lock, in the
// wait that closes it, and hands it over at once (locks.CycleWatch);
// such a cycle is permanent, so it is confirmed without a second look.
// A postponement stall joins the registry with the engine's shards, and
// a Capture locks them one at a time — capturing a graph never stops
// the world, so a snapshot is a sample, not a transaction; the
// supervisor compensates by requiring a stall to persist across
// consecutive scans before breaking it. Capture and Analyze stay
// available as a one-shot diagnosis of both kinds.
package waitgraph

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cbreak/internal/core"
	"cbreak/internal/cycles"
	"cbreak/internal/locks"
)

// Graph is one snapshot of the live wait-for graph.
type Graph struct {
	// When is the snapshot timestamp.
	When time.Time
	// LockEdges are the lock-wait edges: one per goroutine currently
	// blocked inside an instrumented lock acquisition.
	LockEdges []locks.WaitEdge
	// Postponed are the engine's currently-postponed goroutines, at
	// every slot and arity.
	Postponed []core.PostponedWaiter
	// Held maps each goroutine to its held-lock stack, for tracing
	// which blocked goroutines a postponed goroutine is wedging.
	Held map[uint64][]*locks.Mutex
}

// Capture snapshots the wait-for graph of the locks registry and the
// given engine's postponed sets.
func Capture(e *core.Engine) Graph {
	return Graph{
		When:      time.Now(),
		LockEdges: locks.WaitEdges(),
		Postponed: e.PostponedWaiters(),
		Held:      locks.HeldAll(),
	}
}

// ReportKind classifies a wait-graph finding.
type ReportKind string

// Report kinds.
const (
	// ReportDeadlock: an application-only lock cycle — a true deadlock
	// with no postponement edge to break.
	ReportDeadlock ReportKind = "deadlock"
	// ReportPostponeStall: a postponed goroutine's held locks
	// (transitively) block other goroutines; breaking the postponement
	// un-wedges them.
	ReportPostponeStall ReportKind = "postpone-stall"
)

// Report is one structured wait-graph finding. All fields are exported
// and JSON-friendly so campaign journals can embed reports verbatim.
type Report struct {
	// Kind classifies the finding.
	Kind ReportKind `json:"kind"`
	// GIDs are the goroutines involved: for a deadlock, the cycle in
	// order; for a postponement stall, the postponed victim followed by
	// the goroutines it wedges.
	GIDs []uint64 `json:"gids"`
	// Locks are the contested lock names along the cycle or chain,
	// aligned with the waiting goroutine in GIDs where applicable.
	Locks []string `json:"locks,omitempty"`
	// Classes are the lock class names aligned with Locks ("" for
	// untagged locks).
	Classes []string `json:"classes,omitempty"`
	// Sites are the source-site labels of the blocked acquisitions,
	// aligned with Locks.
	Sites []string `json:"sites,omitempty"`
	// Breakpoints are the breakpoint names involved (the postponement
	// edges); empty for an application-only deadlock.
	Breakpoints []string `json:"breakpoints,omitempty"`
	// Victim is the postponed goroutine a cycle break would release (0
	// for deadlock reports).
	Victim uint64 `json:"victim,omitempty"`
	// Desc is the human-readable rendering of the finding.
	Desc string `json:"desc"`
}

// String returns the report's description.
func (r Report) String() string { return string(r.Kind) + ": " + r.Desc }

// signature canonically identifies a finding across scans: kind plus
// the sorted participant set. Rotations of the same cycle and repeated
// sightings of the same stall collapse to one signature.
func (r Report) signature() string {
	gids := append([]uint64(nil), r.GIDs...)
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	var b strings.Builder
	b.WriteString(string(r.Kind))
	for _, g := range gids {
		fmt.Fprintf(&b, "/g%d", g)
	}
	locksSorted := append([]string(nil), r.Locks...)
	sort.Strings(locksSorted)
	for _, l := range locksSorted {
		b.WriteString("/" + l)
	}
	for _, bp := range r.Breakpoints {
		b.WriteString("/bp:" + bp)
	}
	return b.String()
}

// Analyze runs cycle and stall detection over the snapshot and returns
// every finding: application-only lock cycles first, then postponement
// stalls. Deterministic for a given snapshot.
func (g Graph) Analyze() []Report {
	out := g.deadlockCycles()
	return append(out, g.postponeStalls()...)
}

// deadlockCycles finds every elementary cycle in the lock-wait digraph
// (waiter → owner).
// Self-edges — a goroutine blocked on a lock it already owns, the
// re-entrant acquisition case — are 1-cycles. A cycle of lock edges
// contains no postponed goroutine (a postponed goroutine is parked in
// the engine, not blocked in an acquisition), so every cycle found here
// is an application-only deadlock. Each goroutine waits on at most one
// lock with at most one owner, so the cycles are disjoint. Each report
// starts at the cycle's least goroutine id.
func (g Graph) deadlockCycles() []Report {
	edgeBy := make(map[uint64]locks.WaitEdge, len(g.LockEdges))
	for _, e := range g.LockEdges {
		edgeBy[e.Waiter] = e
	}
	gids := make([]uint64, 0, len(edgeBy))
	for gid := range edgeBy {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })

	var out []Report
	cycles.Find(gids, func(gid uint64) []uint64 { return edgeBy[gid].Owners }, 0, func(cycle []uint64) bool {
		edges := make([]locks.WaitEdge, len(cycle))
		for i, gid := range cycle {
			edges[i] = edgeBy[gid]
		}
		out = append(out, deadlockReport(edges))
		return true
	})
	return out
}

// deadlockReport renders one lock cycle, given as its wait edges in
// wait order from any goroutine, as a deadlock report that starts at
// the cycle's least goroutine id.
func deadlockReport(cycle []locks.WaitEdge) Report {
	first := 0
	for i, e := range cycle {
		if e.Waiter < cycle[first].Waiter {
			first = i
		}
	}
	r := Report{Kind: ReportDeadlock}
	parts := make([]string, len(cycle))
	for i := range cycle {
		e := cycle[(first+i)%len(cycle)]
		r.GIDs = append(r.GIDs, e.Waiter)
		r.Locks = append(r.Locks, e.Lock)
		r.Classes = append(r.Classes, e.Class)
		r.Sites = append(r.Sites, e.Site)
		parts[i] = waitDesc(e.Waiter, e)
	}
	r.Desc = strings.Join(parts, " -> ")
	return r
}

// waitDesc renders one lock-wait edge for report descriptions.
func waitDesc(gid uint64, e locks.WaitEdge) string {
	var b strings.Builder
	fmt.Fprintf(&b, "g%d waits %s", gid, e.Lock)
	if e.Class != "" {
		fmt.Fprintf(&b, " [%s]", e.Class)
	}
	if e.Site != "" {
		fmt.Fprintf(&b, " at %s", e.Site)
	}
	if len(e.Owners) > 0 {
		owners := make([]string, len(e.Owners))
		for i, o := range e.Owners {
			owners[i] = fmt.Sprintf("g%d", o)
		}
		fmt.Fprintf(&b, " (held by %s)", strings.Join(owners, ","))
	}
	return b.String()
}

// postponeStalls finds every postponed goroutine whose held locks block
// other goroutines, directly or transitively: the postponement edge
// (victim → breakpoint) closes a cycle through the application's locks,
// and releasing the victim early breaks it.
func (g Graph) postponeStalls() []Report {
	if len(g.Postponed) == 0 {
		return nil
	}
	blockedOn := make(map[*locks.Mutex][]locks.WaitEdge, len(g.LockEdges))
	for _, e := range g.LockEdges {
		if m := e.Mutex(); m != nil {
			blockedOn[m] = append(blockedOn[m], e)
		}
	}
	if len(blockedOn) == 0 {
		return nil
	}
	var out []Report
	for _, p := range g.Postponed {
		held := g.Held[p.GID]
		if len(held) == 0 {
			continue
		}
		// BFS over the wedged closure: goroutines blocked on the
		// victim's held locks, plus goroutines blocked on locks THOSE
		// goroutines hold, and so on.
		frontier := append([]*locks.Mutex(nil), held...)
		visited := map[*locks.Mutex]bool{}
		wedgedSet := map[uint64]bool{}
		var wedged []locks.WaitEdge
		for len(frontier) > 0 {
			m := frontier[0]
			frontier = frontier[1:]
			if visited[m] {
				continue
			}
			visited[m] = true
			for _, e := range blockedOn[m] {
				if e.Waiter == p.GID || wedgedSet[e.Waiter] {
					continue
				}
				wedgedSet[e.Waiter] = true
				wedged = append(wedged, e)
				frontier = append(frontier, g.Held[e.Waiter]...)
			}
		}
		if len(wedged) == 0 {
			continue
		}
		sort.Slice(wedged, func(i, j int) bool { return wedged[i].Waiter < wedged[j].Waiter })
		r := Report{Kind: ReportPostponeStall, Victim: p.GID,
			GIDs: []uint64{p.GID}, Breakpoints: []string{p.Breakpoint}}
		parts := []string{fmt.Sprintf("g%d postponed on %s (slot %d/%d) holding %s",
			p.GID, p.Breakpoint, p.Slot, p.Arity, lockNames(held))}
		for _, e := range wedged {
			r.GIDs = append(r.GIDs, e.Waiter)
			r.Locks = append(r.Locks, e.Lock)
			r.Classes = append(r.Classes, e.Class)
			r.Sites = append(r.Sites, e.Site)
			parts = append(parts, waitDesc(e.Waiter, e))
		}
		r.Desc = strings.Join(parts, "; ")
		out = append(out, r)
	}
	return out
}

// lockNames renders a held-lock stack for descriptions.
func lockNames(ms []*locks.Mutex) string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name()
	}
	return strings.Join(names, ",")
}
