package faultinject

import (
	"errors"
	"sync"
)

// This file adds sync-point crash injection to the fault harness. Where
// Plan injects faults into breakpoint arrivals, CrashPlan injects a
// process death into a component's durability sync points — the k-th
// file write, fsync, or rename — so crash-recovery code can be driven
// through *every* instant a real SIGKILL or power cut could strike.
//
// A component under test calls Point before each sync point; once the
// k-th point is reached the plan "kills" the process: that operation
// (and every later one) fails with ErrCrashed, and for write operations
// an optional byte budget lets only a prefix of the buffer reach disk,
// modelling a torn write. The component must treat ErrCrashed as fatal
// and stop — exactly as if the process had died — and the test then
// reopens the on-disk state and asserts the recovery invariant.
//
// Like Plan, a CrashPlan is keyed by deterministic ordinals, so a crash
// scenario replays identically run to run.

// ErrCrashed is returned by every sync point at and after the planned
// crash. Code under test must propagate it and make no further
// durability progress, simulating process death.
var ErrCrashed = errors.New("faultinject: injected crash (process died here)")

// CrashPoint describes one sync point observed by a CrashPlan, for
// asserting which operation the plan killed.
type CrashPoint struct {
	// Ordinal is the 1-based sync-point ordinal.
	Ordinal int
	// Site names the operation ("write", "sync", "rename", ...).
	Site string
	// Fatal marks the point the plan crashed on.
	Fatal bool
}

// CrashPlan kills the process model at the k-th sync point. The zero
// value (or NewCrashPlan(0)) never crashes and merely counts points,
// which is how tests discover how many sync points a workload has
// before iterating over all of them. Safe for concurrent use.
type CrashPlan struct {
	mu      sync.Mutex
	dieAt   int // 1-based ordinal to crash on; 0 = never
	partial int // bytes of the fatal write to let through (-1 = all)
	n       int
	crashed bool
	points  []CrashPoint
}

// NewCrashPlan returns a plan that crashes at the k-th sync point
// (1-based). k = 0 never crashes.
func NewCrashPlan(k int) *CrashPlan {
	return &CrashPlan{dieAt: k, partial: -1}
}

// WithPartialWrite lets only n bytes of the fatal write through before
// the crash, modelling a torn write. It has no effect when the fatal
// point is not a write. n < 0 (the default) writes the full buffer.
func (p *CrashPlan) WithPartialWrite(n int) *CrashPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.partial = n
	return p
}

// Point records one sync point of `size` bytes (0 for non-write
// operations) at the named site. It returns how many bytes of the
// operation may proceed and whether the process is dead: once the plan
// has crashed, every call reports (0, ErrCrashed). The fatal write
// itself proceeds for the partial-write budget before dying.
func (p *CrashPlan) Point(site string, size int) (allow int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed {
		return 0, ErrCrashed
	}
	p.n++
	fatal := p.dieAt > 0 && p.n == p.dieAt
	p.points = append(p.points, CrashPoint{Ordinal: p.n, Site: site, Fatal: fatal})
	if !fatal {
		return size, nil
	}
	p.crashed = true
	allow = size
	if p.partial >= 0 && p.partial < size {
		allow = p.partial
	}
	return allow, ErrCrashed
}

// Crashed reports whether the planned crash has fired.
func (p *CrashPlan) Crashed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.crashed
}

// Count returns how many sync points the plan has observed — run a
// workload under NewCrashPlan(0) first, then iterate k over 1..Count()
// to crash the same workload at every possible instant.
func (p *CrashPlan) Count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}
