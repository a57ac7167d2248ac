package core

import "sync/atomic"

// Breakpoint is a pre-resolved handle to one breakpoint: the shard
// lookup TriggerHere performs on every call is done once and cached, so
// a hot call site pays only the arrival itself. Obtain handles with
// Engine.Breakpoint (or cbreak.Register for the default engine),
// typically once per call site or per run, and keep them — they are
// safe for concurrent use by any number of goroutines.
//
// Handles survive Engine.Reset. Reset retires the shard a handle points
// at; the next operation on the handle detects this and transparently
// re-resolves a fresh shard under the same name. The staleness contract
// is exactly that of the string-keyed API: counters observed before the
// Reset (including BPStats pointers from Stats) belong to the old
// generation and stop updating, and operations racing with the Reset
// itself may land on either generation.
//
// The handle pins the breakpoint identity: the Name of triggers passed
// to Trigger/TriggerAnd/TriggerMulti is not consulted for shard
// resolution (the handle's name is authoritative for matching, stats,
// and events), so call sites should pass triggers built with the same
// name they registered.
type Breakpoint struct {
	e    *Engine
	name string
	s    atomic.Pointer[bpState]
}

// Breakpoint returns a handle to the named breakpoint, creating its
// shard if this is the first reference. Prefer handles over the
// string-keyed TriggerHere* calls on hot paths — see docs/USAGE.md.
func (e *Engine) Breakpoint(name string) *Breakpoint {
	b := &Breakpoint{e: e, name: name}
	b.s.Store(e.shard(name))
	return b
}

// state returns the handle's live shard, re-resolving after a Reset
// retired the cached one. The fast path is one atomic load and one
// atomic flag check.
func (b *Breakpoint) state() *bpState {
	s := b.s.Load()
	if s == nil || s.retired.Load() {
		s = b.e.shard(b.name)
		b.s.Store(s)
	}
	return s
}

// Name returns the breakpoint name the handle is bound to.
func (b *Breakpoint) Name() string { return b.name }

// Stats returns the breakpoint's live statistics record. After a Reset
// the returned pointer keeps the old generation's (frozen) counters;
// call Stats again for the fresh record.
func (b *Breakpoint) Stats() *BPStats { return b.state().stats }

// Trigger is Engine.TriggerHere through the handle: no per-call shard
// lookup, same semantics.
func (b *Breakpoint) Trigger(t Trigger, first bool, opts Options) bool {
	return b.state().trigger(t, slotOf(first), 2, opts, nil) == OutcomeHit
}

// TriggerAnd is Engine.TriggerHereAnd through the handle.
func (b *Breakpoint) TriggerAnd(t Trigger, first bool, opts Options, action func()) bool {
	return b.state().trigger(t, slotOf(first), 2, opts, action) == OutcomeHit
}

// TriggerOutcome is Engine.TriggerOutcome through the handle.
func (b *Breakpoint) TriggerOutcome(t Trigger, first bool, opts Options) Outcome {
	return b.state().trigger(t, slotOf(first), 2, opts, nil)
}

// TriggerMulti is Engine.TriggerHereMulti through the handle.
func (b *Breakpoint) TriggerMulti(t Trigger, slot, arity int, opts Options) bool {
	return b.state().triggerMulti(t, slot, arity, opts, nil) == OutcomeHit
}

// TriggerMultiAnd is Engine.TriggerHereMultiAnd through the handle.
func (b *Breakpoint) TriggerMultiAnd(t Trigger, slot, arity int, opts Options, action func()) bool {
	return b.state().triggerMulti(t, slot, arity, opts, action) == OutcomeHit
}

// PostponedCount returns how many goroutines are currently postponed on
// this breakpoint, at every slot.
func (b *Breakpoint) PostponedCount() int {
	s := b.state()
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.postponed)
}
