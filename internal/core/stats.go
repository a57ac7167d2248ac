package core

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"cbreak/internal/telemetry"
)

// BPStats accumulates per-breakpoint counters. All fields are updated
// atomically; a BPStats value is shared by every Trigger instance with
// the same name on one engine.
type BPStats struct {
	name string

	// The pad keeps side 0's counters off the line holding the struct's
	// first word, which every access through a *BPStats may read (the
	// compiler's nil checks load it).
	_             [cacheLine]byte
	sides         [2]sideStats // by side: [0]=second-action, [1]=first-action
	hits          atomic.Int64
	waitNanos     atomic.Int64 // total time spent postponed
	maxWaitNanos  atomic.Int64
	lastHitUnixNs atomic.Int64

	// waitHist buckets individual postponement waits by duration against
	// telemetry.WaitBuckets (upper bounds in seconds; waits above the
	// last bound land only in waitObs). Atomic per-bucket counts, so the
	// histogram costs one extra atomic add per postponement — nothing on
	// the disabled or local-false paths.
	waitHist [telemetry.NumWaitBuckets]atomic.Int64
	waitObs  atomic.Int64 // total observations (addWait calls)

	// Hardening counters (hardening.go): absorbed user-closure panics,
	// breaker trips and re-arms.
	panics atomic.Int64
	trips  atomic.Int64
	rearms atomic.Int64
}

// cacheLine is the coherence unit the per-side counters are padded
// against (64 bytes on most amd64 and arm64 parts).
const cacheLine = 64

// sideStats holds the counters one side of a breakpoint writes on its
// arrivals (sheds are arrivals an open circuit breaker or the overload
// layer passed straight through). By the paper's definition a
// breakpoint's two sides are reached by two different threads, so each
// side's counters sit on a line of their own: the trailing pad keeps
// the two sides' counters, and the shared counters after them, at
// least a line apart wherever the allocator places the BPStats.
type sideStats struct {
	arrivals    atomic.Int64
	localFalses atomic.Int64
	postpones   atomic.Int64
	timeouts    atomic.Int64
	sheds       atomic.Int64
	_           [cacheLine]byte
}

func (s *BPStats) side(first bool) *sideStats {
	if first {
		return &s.sides[1]
	}
	return &s.sides[0]
}

func (s *BPStats) arrived(first bool)    { s.side(first).arrivals.Add(1) }
func (s *BPStats) localFalse(first bool) { s.side(first).localFalses.Add(1) }
func (s *BPStats) postpone(first bool)   { s.side(first).postpones.Add(1) }
func (s *BPStats) timeout(first bool)    { s.side(first).timeouts.Add(1) }
func (s *BPStats) hit() {
	s.hits.Add(1)
	s.lastHitUnixNs.Store(time.Now().UnixNano())
}

func (s *BPStats) addWait(d time.Duration) {
	n := int64(d)
	s.waitNanos.Add(n)
	s.waitObs.Add(1)
	secs := d.Seconds()
	for i, bound := range telemetry.WaitBuckets {
		if secs <= bound {
			s.waitHist[i].Add(1)
			break
		}
	}
	for {
		cur := s.maxWaitNanos.Load()
		if n <= cur || s.maxWaitNanos.CompareAndSwap(cur, n) {
			return
		}
	}
}

func (s *BPStats) panicked()       { s.panics.Add(1) }
func (s *BPStats) shed(first bool) { s.side(first).sheds.Add(1) }
func (s *BPStats) trip()           { s.trips.Add(1) }
func (s *BPStats) rearm()          { s.rearms.Add(1) }

func (s *BPStats) sideArrivals(first bool) int64 { return s.side(first).arrivals.Load() }

// Name returns the breakpoint name these statistics belong to.
func (s *BPStats) Name() string { return s.name }

// Hits returns how many times the breakpoint has been hit.
func (s *BPStats) Hits() int64 { return s.hits.Load() }

// Arrivals returns the total number of TriggerHere calls on both sides.
func (s *BPStats) Arrivals() int64 { return s.sides[0].arrivals.Load() + s.sides[1].arrivals.Load() }

// Timeouts returns how many postponements expired without a partner.
func (s *BPStats) Timeouts() int64 { return s.sides[0].timeouts.Load() + s.sides[1].timeouts.Load() }

// Postpones returns how many arrivals were postponed.
func (s *BPStats) Postpones() int64 { return s.sides[0].postpones.Load() + s.sides[1].postpones.Load() }

// LocalFalses returns how many arrivals failed the local predicate.
func (s *BPStats) LocalFalses() int64 {
	return s.sides[0].localFalses.Load() + s.sides[1].localFalses.Load()
}

// TotalWait returns the cumulative time goroutines spent postponed on
// this breakpoint; this is the breakpoint's contribution to runtime
// overhead (section 6.2 of the paper).
func (s *BPStats) TotalWait() time.Duration { return time.Duration(s.waitNanos.Load()) }

// MaxWait returns the longest single postponement.
func (s *BPStats) MaxWait() time.Duration { return time.Duration(s.maxWaitNanos.Load()) }

// Panics returns how many user-closure panics the hardening layer
// absorbed at this breakpoint.
func (s *BPStats) Panics() int64 { return s.panics.Load() }

// Sheds returns how many arrivals an open circuit breaker passed
// straight through.
func (s *BPStats) Sheds() int64 { return s.sides[0].sheds.Load() + s.sides[1].sheds.Load() }

// Trips returns how many times the breakpoint's circuit breaker
// opened (initial trips and failed-probe re-opens).
func (s *BPStats) Trips() int64 { return s.trips.Load() }

// Rearms returns how many times a half-open probe closed the breaker
// again.
func (s *BPStats) Rearms() int64 { return s.rearms.Load() }

// StatsSnapshot is an atomic struct copy of one breakpoint's counters,
// safe to read while the engine is running (each field is loaded
// atomically, so consumers like cmd/cbtables and the incident log never
// see torn values).
type StatsSnapshot struct {
	Name        string
	Arrivals    int64
	LocalFalses int64
	Postpones   int64
	Timeouts    int64
	Hits        int64
	Panics      int64
	Sheds       int64
	Trips       int64
	Rearms      int64
	TotalWait   time.Duration
	MaxWait     time.Duration
	LastHit     time.Time

	// WaitHist is the postponement-wait histogram: per-bucket
	// (non-cumulative) observation counts against telemetry.WaitBuckets;
	// WaitCount is the total observation count (waits above the last
	// bound are in WaitCount but no bucket). Nil/zero when the
	// breakpoint never postponed.
	WaitHist  []int64 `json:",omitempty"`
	WaitCount int64   `json:",omitempty"`
}

// Snapshot returns an atomic copy of the counters.
func (s *BPStats) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Name:        s.name,
		Arrivals:    s.Arrivals(),
		LocalFalses: s.LocalFalses(),
		Postpones:   s.Postpones(),
		Timeouts:    s.Timeouts(),
		Hits:        s.Hits(),
		Panics:      s.Panics(),
		Sheds:       s.Sheds(),
		Trips:       s.Trips(),
		Rearms:      s.Rearms(),
		TotalWait:   s.TotalWait(),
		MaxWait:     s.MaxWait(),
	}
	if ns := s.lastHitUnixNs.Load(); ns != 0 {
		snap.LastHit = time.Unix(0, ns)
	}
	if n := s.waitObs.Load(); n != 0 {
		snap.WaitCount = n
		snap.WaitHist = make([]int64, len(s.waitHist))
		for i := range s.waitHist {
			snap.WaitHist[i] = s.waitHist[i].Load()
		}
	}
	return snap
}

func (s *BPStats) String() string {
	snap := s.Snapshot()
	return fmt.Sprintf("%s: arrivals=%d localFalse=%d postponed=%d timeouts=%d hits=%d wait=%s panics=%d shed=%d trips=%d",
		snap.Name, snap.Arrivals, snap.LocalFalses, snap.Postpones, snap.Timeouts, snap.Hits,
		snap.TotalWait, snap.Panics, snap.Sheds, snap.Trips)
}

// Stats returns the statistics for the named breakpoint, creating an
// empty record if the breakpoint has never been reached. After a Reset
// the returned pointer belongs to the old generation and stops
// updating; call Stats again for the live record.
func (e *Engine) Stats(name string) *BPStats { return e.shard(name).stats }

// AllStats returns statistics for every breakpoint seen by the engine,
// sorted by name. The walk is a lock-free registry traversal; each
// record's counters are atomic, so this is safe (and non-disruptive)
// while the engine is running hot.
func (e *Engine) AllStats() []*BPStats {
	shards := e.shards()
	out := make([]*BPStats, 0, len(shards))
	for _, s := range shards {
		out = append(out, s.stats)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// SnapshotAll returns atomic snapshots of every breakpoint's counters,
// sorted by name.
func (e *Engine) SnapshotAll() []StatsSnapshot {
	all := e.AllStats()
	out := make([]StatsSnapshot, len(all))
	for i, st := range all {
		out[i] = st.Snapshot()
	}
	return out
}

// Report formats all breakpoint statistics as a multi-line string.
func (e *Engine) Report() string {
	var b strings.Builder
	for _, st := range e.AllStats() {
		b.WriteString(st.String())
		b.WriteByte('\n')
	}
	return b.String()
}
