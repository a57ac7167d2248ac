// Package memory provides instrumented shared-memory cells.
//
// The benchmark applications in this repository deliberately contain
// "data races" — unsynchronized logical accesses to shared state — because
// those races are the bugs the paper makes reproducible. Expressing them
// as raw Go memory races would be undefined behaviour, so racy variables
// are routed through Cell values instead: a Cell uses atomics internally
// (the Go program stays well-defined) while preserving racy semantics at
// the logical level (stale reads, lost updates, broken check-then-act
// sequences all remain possible).
//
// Cells also serve as the instrumentation point for the conflict
// detectors in internal/detect: every Load/Store is reported to the
// tracer attached to the cell's Space, which is how the Eraser-style and
// happens-before detectors observe the program (Methodology I/II of the
// paper).
package memory

import (
	"fmt"
	"sync/atomic"

	"cbreak/internal/locks"
)

// Op is the kind of a memory access.
type Op int

const (
	// Read is a load.
	Read Op = iota
	// Write is a store.
	Write
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// Tracer observes memory accesses. OnAccess is called before the access
// takes effect, with the accessing goroutine's id, the cell, the kind of
// access, and the source location label of the access site.
type Tracer interface {
	OnAccess(gid uint64, c *Cell, op Op, site string)
}

// Space groups cells under one tracer. Applications typically create one
// Space per run so detector state does not leak across runs. The zero
// value is usable and untraced.
type Space struct {
	tracer atomic.Pointer[tracerBox]
}

// tracerBox lets an interface value live behind an atomic.Pointer.
type tracerBox struct{ t Tracer }

// NewSpace returns an empty, untraced space.
func NewSpace() *Space { return &Space{} }

// Trace attaches a tracer (nil detaches).
func (s *Space) Trace(t Tracer) {
	if t == nil {
		s.tracer.Store(nil)
		return
	}
	s.tracer.Store(&tracerBox{t})
}

// emit reports an access to the space's tracer. An untraced access costs
// one atomic load: the goroutine id, a runtime.Stack parse of several
// microseconds, is computed only for a tracer, so the instrumentation
// does not widen the racy windows the applications model.
func (s *Space) emit(c *Cell, op Op, site string) {
	if s == nil {
		return
	}
	if b := s.tracer.Load(); b != nil {
		b.t.OnAccess(locks.GoroutineID(), c, op, site)
	}
}

// Cell is a shared int64 variable with instrumented, atomic access. A
// Cell belongs to a Space (possibly nil) and carries a name for
// diagnostics and detector reports.
type Cell struct {
	v     atomic.Int64
	space *Space
	name  string
}

// NewCell returns a named cell in space s (s may be nil) with initial
// value init.
func NewCell(s *Space, name string, init int64) *Cell {
	c := &Cell{space: s, name: name}
	c.v.Store(init)
	return c
}

// Name returns the cell's name.
func (c *Cell) Name() string { return c.name }

// Load reads the cell. site labels the access location in detector
// reports (e.g. "cache.go:42").
func (c *Cell) Load(site string) int64 {
	c.space.emit(c, Read, site)
	return c.v.Load()
}

// Store writes the cell.
func (c *Cell) Store(site string, v int64) {
	c.space.emit(c, Write, site)
	c.v.Store(v)
}

// Add performs a racy read-modify-write: it is deliberately NOT an atomic
// Add but a Load followed by a Store, so concurrent Adds can lose
// updates. This models the classic `x++` data race.
func (c *Cell) Add(site string, delta int64) int64 {
	v := c.Load(site)
	nv := v + delta
	c.Store(site, nv)
	return nv
}

// AtomicAdd performs a correct atomic add (the "fixed" version of a racy
// counter; used by apps after the bug is repaired and in ablations).
func (c *Cell) AtomicAdd(site string, delta int64) int64 {
	c.space.emit(c, Write, site)
	return c.v.Add(delta)
}

// CompareAndSwap exposes CAS for building correct algorithms on cells.
func (c *Cell) CompareAndSwap(site string, old, new int64) bool {
	c.space.emit(c, Write, site)
	return c.v.CompareAndSwap(old, new)
}

// String implements fmt.Stringer.
func (c *Cell) String() string { return fmt.Sprintf("Cell(%s=%d)", c.name, c.v.Load()) }

// Ref is a shared reference variable (pointer-like) with instrumented,
// atomic access; the analog of Cell for object references. Nil
// dereference bugs in the C/C++ benchmarks are modelled as loading a nil
// Ref and invoking a method through it.
type Ref[T any] struct {
	v     atomic.Pointer[T]
	space *Space
	// id is the Cell identity the reference reports to tracers, so
	// detectors can treat cells and refs uniformly.
	id Cell
}

// NewRef returns a named reference in space s holding init (may be nil).
func NewRef[T any](s *Space, name string, init *T) *Ref[T] {
	r := &Ref[T]{space: s}
	r.id.name = name
	r.v.Store(init)
	return r
}

// Load reads the reference.
func (r *Ref[T]) Load(site string) *T {
	r.space.emit(&r.id, Read, site)
	return r.v.Load()
}

// Store writes the reference.
func (r *Ref[T]) Store(site string, p *T) {
	r.space.emit(&r.id, Write, site)
	r.v.Store(p)
}
