package core

import (
	"sync"
	"sync/atomic"

	"cbreak/internal/guard"
)

// This file implements the engine's sharded breakpoint registry. Every
// breakpoint name owns a bpState shard: its own mutex, postponed lists,
// statistics, and circuit breaker. Arrivals on distinct
// breakpoints therefore never contend on a shared lock — the property
// that lets breakpoints stay in hot production code the way the paper
// promises ("like assertions").
//
// Shards are resolved through a lock-free registry (an atomic pointer
// to a sync.Map). Reset swaps in a fresh registry and retires the old
// shards; retirement is the hinge of the handle lifecycle (handle.go):
// a retired shard accepts no new waiters, and cached handles detect the
// retired flag and transparently re-resolve.

// bpState is the per-breakpoint shard: all mutable engine state for one
// breakpoint name.
type bpState struct {
	name  string
	stats *BPStats
	eng   *Engine // owning engine, for global postponed accounting

	// disabled administratively bypasses this one breakpoint while the
	// engine stays enabled (Engine.SetBreakpointEnabled — the live
	// control plane's per-breakpoint toggle). Checked lock-free at the
	// top of every trigger path; a disabled arrival behaves exactly like
	// an engine-disabled one (action still runs, OutcomeDisabled). The
	// flag lives on the shard, so Reset discards it with the rest of the
	// breakpoint's state.
	disabled atomic.Bool

	// mu guards the postponed lists, the waiter state machines, and the
	// retired flag. It is the only lock on the rendezvous path, and it
	// is private to this breakpoint.
	mu        sync.Mutex
	retired   atomic.Bool // written under mu; read lock-free by handles
	postponed []*waiter
	multi     []*mwaiter

	// Circuit breaker cache, rebuilt lazily when the engine's breaker
	// epoch moves (SetBreakerConfig). Guarded by brMu, not mu, so
	// breaker admission never contends with rendezvous matching.
	brMu    sync.Mutex
	breaker *guard.Breaker
	brEpoch uint64

	// Overload-config cache, same lazy-epoch scheme as the breaker
	// (overload.go). Guarded by brMu.
	overload *OverloadConfig
	ovEpoch  uint64
}

func newShard(e *Engine, name string) *bpState {
	return &bpState{name: name, stats: &BPStats{name: name}, eng: e}
}

// shard resolves (creating on first use) the live shard for name. The
// fast path is a single lock-free sync.Map load.
func (e *Engine) shard(name string) *bpState {
	reg := e.registry.Load()
	if v, ok := reg.Load(name); ok {
		return v.(*bpState)
	}
	v, _ := reg.LoadOrStore(name, newShard(e, name))
	return v.(*bpState)
}

// lookupShard returns the live shard for name without creating one.
func (e *Engine) lookupShard(name string) (*bpState, bool) {
	v, ok := e.registry.Load().Load(name)
	if !ok {
		return nil, false
	}
	return v.(*bpState), true
}

// shards snapshots the live shard set, unordered.
func (e *Engine) shards() []*bpState {
	var out []*bpState
	e.registry.Load().Range(func(_, v any) bool {
		out = append(out, v.(*bpState))
		return true
	})
	return out
}

// lockLive locks s, re-resolving through the registry when a Reset
// retired the shard between resolution and locking. Because retired is
// only set under the shard mutex (retire) and checked under it here, a
// waiter can never be parked on a retired shard — Reset can therefore
// guarantee that every postponed goroutine it is responsible for has
// been released.
func (e *Engine) lockLive(s *bpState) *bpState {
	for {
		s.mu.Lock()
		if !s.retired.Load() {
			return s
		}
		s.mu.Unlock()
		s = e.shard(s.name)
	}
}

// retire marks the shard dead and releases every postponed waiter with
// a timeout outcome. Called by Reset after the registry swap, so new
// arrivals already resolve to fresh shards.
func (s *bpState) retire() {
	s.mu.Lock()
	s.retired.Store(true)
	var released int64
	for _, w := range s.postponed {
		if w.state == waiterWaiting {
			w.state = waiterCancelled
			w.cancelOutcome = OutcomeTimeout
			close(w.cancelCh)
			released++
		}
	}
	for _, w := range s.multi {
		if w.state == waiterWaiting {
			w.state = waiterCancelled
			w.cancelOutcome = OutcomeTimeout
			close(w.cancelCh)
			released++
		}
	}
	s.postponed, s.multi = nil, nil
	s.eng.postponedTotal.Add(-released)
	s.mu.Unlock()
}

// breakerFor returns the shard's circuit breaker under the engine's
// current configuration, or nil when breakers are disabled. The breaker
// is rebuilt lazily after SetBreakerConfig bumps the epoch, which is
// how "existing breaker state is discarded" works without a global
// stop-the-world pass over all shards.
func (s *bpState) breakerFor(e *Engine) *guard.Breaker {
	cfg := e.breakerCfg.Load()
	if cfg == nil {
		return nil
	}
	epoch := e.brEpoch.Load()
	s.brMu.Lock()
	if s.breaker == nil || s.brEpoch != epoch {
		s.breaker = guard.NewBreaker(*cfg)
		s.brEpoch = epoch
	}
	br := s.breaker
	s.brMu.Unlock()
	return br
}

// releaseWaiterLocked cancels a postponed two-way waiter with the given
// outcome. Caller holds s.mu.
func (s *bpState) releaseWaiterLocked(w *waiter, out Outcome) {
	s.removeWaiter(w)
	w.state = waiterCancelled
	w.cancelOutcome = out
	close(w.cancelCh)
}

// releaseMultiWaiterLocked is releaseWaiterLocked for multi-way
// waiters. Caller holds s.mu.
func (s *bpState) releaseMultiWaiterLocked(w *mwaiter, out Outcome) {
	s.removeMultiWaiter(w)
	w.state = waiterCancelled
	w.cancelOutcome = out
	close(w.cancelCh)
}

func (s *bpState) removeWaiter(w *waiter) {
	ws := s.postponed
	for i, x := range ws {
		if x == w {
			ws[i] = ws[len(ws)-1]
			s.postponed = ws[:len(ws)-1]
			s.eng.postponedTotal.Add(-1)
			return
		}
	}
}

func (s *bpState) removeMultiWaiter(w *mwaiter) {
	ws := s.multi
	for i, x := range ws {
		if x == w {
			ws[i] = ws[len(ws)-1]
			s.multi = ws[:len(ws)-1]
			s.eng.postponedTotal.Add(-1)
			return
		}
	}
}
