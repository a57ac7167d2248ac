// Package detect implements the dynamic conflict detectors that feed
// breakpoint insertion in the paper's two methodologies (section 5):
//
//   - Methodology I uses bug reports from a testing tool (CalFuzzer in
//     the paper). The Eraser-style lockset detector and the
//     FastTrack-style happens-before detector here produce data-race
//     reports in the same "access of x at file:line" format, and the
//     lock-order detector produces deadlock reports.
//   - Methodology II runs a conflict detector to list *all* potential
//     conflict states — data races, lock contentions, and contentions
//     over synchronization objects — which the developer then turns into
//     candidate breakpoints one by one.
//
// A Detector attaches to the instrumented substrates: it implements
// memory.Tracer for data accesses and locks.Observer for lock events.
package detect

import (
	"fmt"
	"strings"
	"sync"

	"cbreak/internal/cycles"
	"cbreak/internal/locks"
	"cbreak/internal/memory"
)

// Kind labels a conflict report.
type Kind int

const (
	// KindRace is a data race: same location, at least one write, no
	// common lock / no happens-before edge.
	KindRace Kind = iota
	// KindContention is two threads contending for the same lock.
	KindContention
	// KindLockOrder is a lock-order cycle (potential deadlock).
	KindLockOrder
	// KindAtomicity is an observed unserializable interleaving inside a
	// declared atomic block.
	KindAtomicity
	// KindLostNotify is a notification that fired with no waiter on a
	// condition the program waits on — a missed-notification candidate.
	KindLostNotify
)

// String returns the report-kind label.
func (k Kind) String() string {
	switch k {
	case KindRace:
		return "data race"
	case KindContention:
		return "lock contention"
	case KindLockOrder:
		return "deadlock"
	case KindAtomicity:
		return "atomicity violation"
	case KindLostNotify:
		return "lost notification"
	default:
		return "unknown"
	}
}

// Report is one detected potential conflict state. Site1/Site2 are the
// source labels of the two conflicting operations; Var is the shared
// variable (races) or lock (contention/deadlock) name. For lock-order
// reports, Held1/Held2 name the locks each thread already held.
type Report struct {
	Kind         Kind
	Var          string
	Site1, Site2 string
	Held1, Held2 string
	// Chain carries the lock-name sequence of a lock-order cycle longer
	// than two locks (nil for two-lock cycles).
	Chain []string
}

// Key returns a canonical identity for deduplication: site pair order is
// normalized for symmetric kinds.
func (r Report) Key() string {
	s1, s2 := r.Site1, r.Site2
	if r.Kind != KindLockOrder && s1 > s2 {
		s1, s2 = s2, s1
	}
	return fmt.Sprintf("%d|%s|%s|%s|%s", r.Kind, r.Var, s1, s2, strings.Join(r.Chain, ">"))
}

// Format renders the report in the paper's CalFuzzer-like shape.
func (r Report) Format() string {
	switch r.Kind {
	case KindRace:
		return fmt.Sprintf("Data race detected between\n  access of %s at %s, and\n  access of %s at %s.",
			r.Var, r.Site1, r.Var, r.Site2)
	case KindContention:
		return fmt.Sprintf("Lock contention:\n  %s,\n  %s", r.Site1, r.Site2)
	case KindLockOrder:
		if len(r.Chain) > 0 {
			return fmt.Sprintf("Deadlock found (lock-order cycle):\n  %s -> %s",
				strings.Join(r.Chain, " -> "), r.Held1)
		}
		return fmt.Sprintf("Deadlock found:\n  Thread trying to acquire lock %s while holding lock %s at %s\n  Thread trying to acquire lock %s while holding lock %s at %s",
			r.Var, r.Held1, r.Site1, r.Held2, r.Var, r.Site2)
	case KindAtomicity:
		return fmt.Sprintf("Atomicity violation detected:\n  atomic block %q re-accessed %s at %s after a conflicting access at %s.",
			r.Held1, r.Var, r.Site2, r.Site1)
	case KindLostNotify:
		return fmt.Sprintf("Lost notification candidate on %s:\n  notify with no waiter at %s,\n  wait at %s",
			r.Var, r.Site1, r.Site2)
	default:
		return "unknown report"
	}
}

// Detector aggregates the sub-detectors. Attach it to a memory.Space via
// Space.Trace and to each instrumented Mutex via Mutex.Observe (or use
// locks through helpers that register automatically).
type Detector struct {
	mu sync.Mutex

	lockset   *eraser
	hb        *fasttrack
	seen      map[string]Report
	order     []string
	useEraser bool
	useHB     bool

	// lock-order graph: edge held -> want with the sites involved. succ
	// holds the same edges for the cycle search and nodes the locks with
	// an edge out, in the order their first edge appeared, which fixes
	// the chain a cycle reports.
	edges map[edgeKey]edgeInfo
	succ  map[*locks.Mutex][]*locks.Mutex
	nodes []*locks.Mutex

	// atomic tracks each goroutine's active atomic block (atomicity.go).
	atomic map[uint64]*atomicBlock

	// conds tracks observed condition variables (notify.go).
	conds map[*locks.Cond]*condState
}

type edgeKey struct {
	held, want *locks.Mutex
}

type edgeInfo struct {
	heldSite, wantSite string
}

// Option configures a Detector.
type Option func(*Detector)

// WithEraser enables the lockset race detector (default on).
func WithEraser(on bool) Option { return func(d *Detector) { d.useEraser = on } }

// WithHappensBefore enables the vector-clock race detector (default on).
func WithHappensBefore(on bool) Option { return func(d *Detector) { d.useHB = on } }

// New returns a Detector with both race detectors enabled.
func New(opts ...Option) *Detector {
	d := &Detector{
		lockset:   newEraser(),
		hb:        newFastTrack(),
		seen:      make(map[string]Report),
		edges:     make(map[edgeKey]edgeInfo),
		succ:      make(map[*locks.Mutex][]*locks.Mutex),
		useEraser: true,
		useHB:     true,
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

func (d *Detector) report(r Report) {
	k := r.Key()
	if _, dup := d.seen[k]; dup {
		return
	}
	d.seen[k] = r
	d.order = append(d.order, k)
}

// Reports returns all distinct reports in detection order.
func (d *Detector) Reports() []Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Report, 0, len(d.order))
	for _, k := range d.order {
		out = append(out, d.seen[k])
	}
	return out
}

// ReportsOf returns the distinct reports of one kind.
func (d *Detector) ReportsOf(kind Kind) []Report {
	var out []Report
	for _, r := range d.Reports() {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

// FormatAll renders every report, separated by blank lines, in a
// deterministic order (detection order).
func (d *Detector) FormatAll() string {
	var parts []string
	for _, r := range d.Reports() {
		parts = append(parts, r.Format())
	}
	return strings.Join(parts, "\n\n")
}

// OnAccess implements memory.Tracer: feed the access to the enabled race
// detectors.
func (d *Detector) OnAccess(gid uint64, c *memory.Cell, op memory.Op, site string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.useEraser {
		for _, r := range d.lockset.access(gid, c, op, site) {
			d.report(r)
		}
	}
	if d.useHB {
		for _, r := range d.hb.access(gid, c, op, site) {
			d.report(r)
		}
	}
	if d.atomic != nil {
		d.atomicityCheck(gid, c, op, site)
	}
}

// BeforeLock implements locks.Observer: contention and lock-order
// detection happen at acquisition requests.
func (d *Detector) BeforeLock(m *locks.Mutex, gid uint64, site string) {
	// Contention: the lock is currently held by another goroutine.
	if owner, ownerSite := m.Owner(); owner != 0 && owner != gid {
		d.mu.Lock()
		d.report(Report{Kind: KindContention, Var: m.Name(), Site1: site, Site2: ownerSite})
		d.mu.Unlock()
	}
	// Lock-order: add edge held->m for every held lock; report when the
	// new edge closes a cycle in the lock-order graph. Two-lock cycles
	// (the common case) report the paper's two-site shape; longer
	// cycles (GoodLock-style) carry the full chain.
	held := locks.HeldBy(gid)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, h := range held {
		if h == m {
			continue
		}
		k := edgeKey{held: h, want: m}
		if _, ok := d.edges[k]; !ok {
			_, hSite := h.Owner()
			d.edges[k] = edgeInfo{heldSite: hSite, wantSite: site}
			if _, ok := d.succ[h]; !ok {
				d.nodes = append(d.nodes, h)
			}
			d.succ[h] = append(d.succ[h], m)
		}
		if rev, ok := d.edges[edgeKey{held: m, want: h}]; ok {
			d.report(Report{
				Kind:  KindLockOrder,
				Var:   m.Name(),
				Held1: h.Name(),
				Site1: site,
				Held2: h.Name(),
				Site2: rev.wantSite,
			})
			continue
		}
		if chain := d.chain(h, m); chain != nil {
			d.report(Report{
				Kind:  KindLockOrder,
				Var:   m.Name(),
				Held1: h.Name(),
				Site1: site,
				Held2: chain[0],
				Site2: "(chain)",
				Chain: chain,
			})
		}
	}
}

// maxChain bounds a reported chain: the wanted lock, at most eight
// locks between, and the held one.
const maxChain = 10

// chain returns the first lock-order cycle, in the cycle search's fixed
// order, that closes through the edge held -> want: the lock names from
// want round to held, or nil. The caller has ruled out the two-lock
// cycle, so a chain has at least three locks.
func (d *Detector) chain(held, want *locks.Mutex) []string {
	var chain []string
	succ := func(m *locks.Mutex) []*locks.Mutex { return d.succ[m] }
	cycles.Find(d.nodes, succ, maxChain, func(c []*locks.Mutex) bool {
		for i, m := range c {
			if m == held && c[(i+1)%len(c)] == want {
				for j := range c {
					chain = append(chain, c[(i+1+j)%len(c)].Name())
				}
				return false
			}
		}
		return true
	})
	return chain
}

// AfterLock implements locks.Observer: acquire edge for happens-before.
func (d *Detector) AfterLock(m *locks.Mutex, gid uint64, site string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.useHB {
		d.hb.acquire(gid, m)
	}
	if d.useEraser {
		d.lockset.lockAcquired(gid, m)
	}
}

// BeforeUnlock implements locks.Observer: release edge for
// happens-before.
func (d *Detector) BeforeUnlock(m *locks.Mutex, gid uint64, site string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.useHB {
		d.hb.release(gid, m)
	}
	if d.useEraser {
		d.lockset.lockReleased(gid, m)
	}
}

// ForkEdge records that parent started child (happens-before edge from
// the fork point); call it right before spawning a traced goroutine.
func (d *Detector) ForkEdge(parent, child uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hb.fork(parent, child)
}

// JoinEdge records that parent joined child (happens-before edge to the
// join point).
func (d *Detector) JoinEdge(parent, child uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hb.join(parent, child)
}

// Instrument attaches the detector to a memory space and a set of locks
// in one call.
func (d *Detector) Instrument(sp *memory.Space, ms ...*locks.Mutex) {
	if sp != nil {
		sp.Trace(d)
	}
	for _, m := range ms {
		m.Observe(d)
	}
}
