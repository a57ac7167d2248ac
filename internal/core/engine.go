package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cbreak/internal/guard"
	"cbreak/internal/telemetry"
)

// Engine implements the BTrigger mechanism: it keeps the set of
// postponed goroutines, matches arriving triggers against it, and
// enforces the ordering action of a hit breakpoint.
//
// State is sharded per breakpoint name (shard.go): each breakpoint owns
// its own mutex, postponed lists, statistics, and circuit breaker, so
// arrivals on unrelated breakpoints never contend.
// Shards are resolved through a lock-free registry and can be pinned on
// a Breakpoint handle (handle.go) to skip even the registry lookup.
//
// An Engine is safe for concurrent use. The zero value is not usable;
// create engines with NewEngine. Most programs use the package-level
// default engine through the cbreak facade.
type Engine struct {
	enabled atomic.Bool

	// DefaultTimeout is the pause time T applied when Options.Timeout
	// is zero. The paper uses 100ms as the default.
	DefaultTimeout time.Duration

	// OrderWindow is how long the second-action goroutine yields after
	// the first-action goroutine has been released, when the first side
	// used plain TriggerHere (no explicit handshake). It gives the
	// first side's next instruction time to execute first.
	OrderWindow time.Duration

	// registry maps breakpoint name → *bpState. Reset swaps the whole
	// map atomically and retires the old shards, which is why the
	// pointer indirection exists (see shard.go).
	registry atomic.Pointer[sync.Map]

	seq      atomic.Uint64 // arrival sequence, for deterministic matching order
	eventSeq atomic.Uint64 // published-event sequence; taken only when the bus has a listener
	onHit    atomic.Pointer[onHitBox]

	// bus is the engine's telemetry bus: every event and incident is
	// published on it, and every consumer — durable journal sink
	// (durable.go, attached as a synchronous tap), live NDJSON streams,
	// stream metric counters — hangs off it. With no listeners a publish
	// is one atomic load, the same price the old durable-sink check paid.
	bus     *telemetry.Bus
	durable durableState // tracks the durable sink's bus tap (durable.go)

	// postponedTotal counts currently-postponed goroutines across all
	// shards (two-way and multi-way). Maintained at the shard append /
	// remove sites; the overload layer (overload.go) and the wait-graph
	// supervisor read it lock-free.
	postponedTotal atomic.Int64

	// Overload protection (overload.go): bounded postponed populations
	// and adaptive postponement budgets, configured like the breaker
	// (atomic pointer + lazy per-shard epoch rebuild).
	overloadCfg atomic.Pointer[OverloadConfig]
	ovEpoch     atomic.Uint64

	// Hardening layer (hardening.go): incident log, circuit-breaker
	// configuration, fault injector, action-panic policy, watchdog.
	incidents           guard.IncidentLog
	breakerCfg          atomic.Pointer[guard.BreakerConfig]
	brEpoch             atomic.Uint64 // bumped by SetBreakerConfig; shards rebuild lazily
	injector            atomic.Value  // *injectorBox
	isolateActionPanics atomic.Bool

	wdMu   sync.Mutex
	wdStop chan struct{}
	wdDone chan struct{}
}

// yield gives other goroutines the processor during ordering windows.
func yield() { runtime.Gosched() }

// NewEngine returns an enabled engine with the paper's default pause
// time of 100ms and a 100µs ordering window.
func NewEngine() *Engine {
	e := &Engine{
		DefaultTimeout: 100 * time.Millisecond,
		OrderWindow:    100 * time.Microsecond,
		bus:            telemetry.NewBus(),
	}
	e.registry.Store(new(sync.Map))
	e.enabled.Store(true)
	return e
}

// SetEnabled turns the engine on or off. Disabled breakpoints cost a
// single atomic load, so they can be left in production code like
// assertions.
func (e *Engine) SetEnabled(v bool) { e.enabled.Store(v) }

// Enabled reports whether the engine is active.
func (e *Engine) Enabled() bool { return e.enabled.Load() }

// Reset discards all postponed waiters, statistics, and breaker state.
// Any currently postponed goroutines are released with a
// timeout outcome. Reset swaps in a fresh shard registry and retires
// the old shards one at a time — there is no stop-the-world lock, and
// arrivals racing with Reset land on either the old or the new
// generation, never blocked on both. Breakpoint handles survive a
// Reset: they detect the retired shard and transparently re-resolve
// (see handle.go for the exact staleness contract).
func (e *Engine) Reset() {
	old := e.registry.Swap(new(sync.Map))
	old.Range(func(_, v any) bool {
		v.(*bpState).retire()
		return true
	})
}

// matchResult is delivered to a postponed waiter when a partner arrives.
type matchResult struct {
	other     Trigger
	iAmFirst  bool
	firstDone chan struct{} // closed when the first side has proceeded
}

// waiter states, guarded by the owning shard's mutex.
const (
	waiterWaiting = iota
	waiterMatched
	waiterCancelled
)

type waiter struct {
	t        Trigger
	first    bool
	gid      uint64
	seq      uint64
	ch       chan matchResult // buffered, capacity 1
	cancelCh chan struct{}    // closed by Reset/watchdog to release the waiter
	state    int              // guarded by shard mu
	action   func()           // optional first-action instruction (TriggerHereAnd)

	// deadline is when the requested postponement budget expires; the
	// watchdog force-releases waiters stuck past it (plus grace).
	deadline time.Time
	// cancelOutcome is the outcome a cancelled waiter reports, set
	// under the shard mutex before cancelCh is closed (OutcomeTimeout
	// for Reset/watchdog, OutcomePanic for poisoned-predicate release).
	// The close of cancelCh publishes it, so the released goroutine
	// reads it without re-taking the lock.
	cancelOutcome Outcome
}

// TriggerHere announces that the calling goroutine has reached one side
// of the breakpoint t. first states the breakpoint's ordering action: the
// side called with first=true executes its next instruction before the
// side called with first=false. TriggerHere returns true if and only if
// the breakpoint was hit (both sides arrived, all predicates held, and
// the ordering was enforced).
//
// Mechanism (section 3 of the paper): if the local predicate holds, the
// goroutine is postponed for up to the timeout, waiting in the engine's
// Postponed set. If a partner with a satisfied joint predicate arrives
// in the meantime, the breakpoint is hit; otherwise the goroutine times
// out and continues, so a breakpoint can never deadlock the program.
//
// TriggerHere resolves the breakpoint's shard by name on every call;
// hot call sites can hoist the lookup with Engine.Breakpoint.
func (e *Engine) TriggerHere(t Trigger, first bool, opts Options) bool {
	if !e.enabled.Load() {
		return false
	}
	return e.trigger(e.shard(t.Name()), t, first, opts, nil) == OutcomeHit
}

// TriggerHereAnd is TriggerHere with a strict ordering handshake: when
// this call is the first-action side of a hit breakpoint, action (the
// "next instruction" at the breakpoint location) runs inside the call and
// the second side is released only after action returns. When the
// breakpoint is not hit, or this is the second-action side, action runs
// before TriggerHereAnd returns as well, so call sites can uniformly move
// the guarded instruction into action.
func (e *Engine) TriggerHereAnd(t Trigger, first bool, opts Options, action func()) bool {
	if !e.enabled.Load() {
		if action != nil {
			action()
		}
		return false
	}
	return e.trigger(e.shard(t.Name()), t, first, opts, action) == OutcomeHit
}

// TriggerOutcome is TriggerHere returning the full outcome rather than
// just hit/miss; useful for tests and statistics.
func (e *Engine) TriggerOutcome(t Trigger, first bool, opts Options) Outcome {
	if !e.enabled.Load() {
		return OutcomeDisabled
	}
	return e.trigger(e.shard(t.Name()), t, first, opts, nil)
}

// trigger is the two-way arrival path. s is the breakpoint's shard,
// resolved by the caller (by name, or pinned on a handle); all state the
// arrival touches lives on it. A disabled arrival returns here, without
// setting up the stack frame of the rendezvous body (arrive).
func (e *Engine) trigger(s *bpState, t Trigger, first bool, opts Options, action func()) Outcome {
	if !e.enabled.Load() || s.disabled.Load() {
		if action != nil {
			action()
		}
		return OutcomeDisabled
	}
	return e.arrive(s, t, first, opts, action)
}

// arrive is an enabled two-way arrival: breaker admission, the local
// predicate, then matching or postponement on the shard.
func (e *Engine) arrive(s *bpState, t Trigger, first bool, opts Options, action func()) Outcome {
	name := s.name
	st := s.stats
	br := s.breakerFor(e)
	st.arrived(first)
	fault := e.faultFor(name, first)

	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = e.DefaultTimeout
	}

	if br != nil {
		admit, tr := br.Allow(time.Now())
		e.noteBreakerTransition(name, st, br, tr)
		if !admit {
			// Breaker open: the breakpoint is tripped; pass straight
			// through at near-zero cost.
			st.shed(first)
			e.logEvent(s, EventArrived, 0, first)
			if e.execAction(name, 0, st, fault, 0, action) {
				return OutcomePanic
			}
			return OutcomeShed
		}
	}

	ok, pv, panicked := e.evalLocal(t, first, opts, st, fault)
	if panicked {
		return e.absorbPredPanic(name, "local", 0, st, fault, pv, action)
	}
	if !ok || fault.Drop {
		st.localFalse(first)
		// Log without the goroutine-id stack parse: local-false is the
		// hot rejection path for refined breakpoints on busy sites.
		e.logEvent(s, EventArrived, 0, first)
		if e.execAction(name, 0, st, fault, 0, action) {
			return OutcomePanic
		}
		return OutcomeLocalFalse
	}

	gid := goroutineID()
	e.logEvent(s, EventArrived, gid, first)

	// Lock the live shard; a racing Reset may have retired s, in which
	// case we continue on its replacement (and its counters).
	s = e.lockLive(s)
	st = s.stats
	// Try to match an already-postponed partner.
	w, poisoned, gpv := s.findPartner(t, first, gid, fault)
	if poisoned != nil {
		// The joint predicate panicked against this waiter: release the
		// partner so nothing stays postponed behind a broken predicate,
		// and absorb the panic.
		s.releaseWaiterLocked(poisoned, OutcomePanic)
		s.mu.Unlock()
		return e.absorbPredPanic(name, "global", gid, st, fault, gpv, action)
	}
	if w != nil {
		s.removeWaiter(w)
		w.state = waiterMatched
		st.hit()
		e.logEvent(s, EventHit, gid, first)
		e.emitHit(name, t, w.t)
		fd := make(chan struct{})
		if first {
			// We are the first-action side; the postponed partner is second.
			w.ch <- matchResult{other: t, iAmFirst: false, firstDone: fd}
			s.mu.Unlock()
			e.reportBreaker(br, name, st, true)
			return e.runFirst(name, gid, st, fault, timeout, fd, action)
		}
		// The postponed partner is the first-action side.
		w.ch <- matchResult{other: t, iAmFirst: true, firstDone: fd}
		s.mu.Unlock()
		e.reportBreaker(br, name, st, true)
		e.awaitFirst(fd, timeout)
		if e.execAction(name, gid, st, fault, timeout, action) {
			return OutcomePanic
		}
		return OutcomeHit
	}

	// No partner yet: postpone ourselves — if the overload layer admits
	// another waiter. At the bound the arrival is shed instead: it
	// passes straight through like a tripped breaker's, trading hit
	// probability for a bounded postponed population.
	ov := s.overloadFor(e)
	global := e.postponedTotal.Load()
	if reason, shed := ov.shedReason(len(s.postponed)+len(s.multi), global); shed {
		s.mu.Unlock()
		st.shed(first)
		e.recordIncident(guard.KindOverloadShed, name, gid, reason)
		if e.execAction(name, gid, st, fault, 0, action) {
			return OutcomePanic
		}
		return OutcomeShed
	}
	// Under pressure the granted budget shrinks below the requested
	// timeout (overload.go), draining the backlog faster as it grows.
	budget := ov.budget(timeout, global)
	w = &waiter{t: t, first: first, gid: gid, seq: e.seq.Add(1),
		ch: make(chan matchResult, 1), cancelCh: make(chan struct{}), action: action,
		deadline: time.Now().Add(budget)}
	s.postponed = append(s.postponed, w)
	e.postponedTotal.Add(1)
	st.postpone(first)
	s.mu.Unlock()
	e.logEvent(s, EventPostponed, gid, first)

	selectTimeout := budget
	if fault.WedgeWait {
		// Injected broken timer: only a partner, Reset, or the watchdog
		// can release this waiter.
		selectTimeout = wedgedTimeout
	}
	timer := time.NewTimer(selectTimeout)
	defer timer.Stop()
	start := time.Now()
	select {
	case res := <-w.ch:
		st.addWait(time.Since(start))
		e.reportBreaker(br, name, st, true)
		return e.finishMatch(name, gid, st, fault, res, action, timeout)
	case <-w.cancelCh:
		// Reset, the watchdog, or a poisoned-predicate release freed us.
		// The close happens after cancelOutcome was set under the shard
		// mutex, so the plain read is ordered.
		st.addWait(time.Since(start))
		out := w.cancelOutcome
		if out == OutcomeDisabled { // never set: defensive default
			out = OutcomeTimeout
		}
		if out == OutcomeTimeout {
			e.reportBreaker(br, name, st, false)
		}
		if e.execAction(name, gid, st, fault, timeout, action) {
			return OutcomePanic
		}
		return out
	case <-timer.C:
		s.mu.Lock()
		if w.state == waiterMatched {
			// Matched concurrently with the timeout; honor the match.
			s.mu.Unlock()
			res := <-w.ch
			st.addWait(time.Since(start))
			e.reportBreaker(br, name, st, true)
			return e.finishMatch(name, gid, st, fault, res, action, timeout)
		}
		s.removeWaiter(w)
		w.state = waiterCancelled
		s.mu.Unlock()
		st.addWait(time.Since(start))
		st.timeout(first)
		e.logEvent(s, EventTimeout, gid, first)
		e.reportBreaker(br, name, st, false)
		if e.execAction(name, gid, st, fault, timeout, action) {
			return OutcomePanic
		}
		return OutcomeTimeout
	}
}

func (e *Engine) finishMatch(name string, gid uint64, st *BPStats, fault guard.Fault, res matchResult, action func(), timeout time.Duration) Outcome {
	if res.iAmFirst {
		return e.runFirst(name, gid, st, fault, timeout, res.firstDone, action)
	}
	e.awaitFirst(res.firstDone, timeout)
	if e.execAction(name, gid, st, fault, timeout, action) {
		return OutcomePanic
	}
	return OutcomeHit
}

// runFirst executes the first-action side's next instruction (if the
// caller supplied one) and then releases the second side. The release is
// deferred so a panicking action (e.g. the guarded instruction throwing
// the very exception the breakpoint reproduces) still frees the partner
// whether the panic is re-thrown or absorbed (SetIsolateActionPanics).
func (e *Engine) runFirst(name string, gid uint64, st *BPStats, fault guard.Fault, budget time.Duration, firstDone chan struct{}, action func()) Outcome {
	if action == nil && fault.Zero() {
		// No explicit next instruction: release the partner immediately;
		// the partner additionally yields for OrderWindow so that this
		// goroutine's next instruction very likely runs first.
		close(firstDone)
		return OutcomeHit
	}
	defer close(firstDone)
	if e.execAction(name, gid, st, fault, budget, action) {
		return OutcomePanic
	}
	return OutcomeHit
}

// awaitFirst blocks the second-action side until the first side has
// proceeded, then yields for the ordering window. The window is a
// Gosched spin rather than a sleep: OS timer quantization would stretch
// a sub-millisecond sleep to a full tick, letting the first side's
// *subsequent* instructions win the race against the second side's next
// instruction and undoing the ordering the breakpoint promised.
func (e *Engine) awaitFirst(firstDone chan struct{}, timeout time.Duration) {
	select {
	case <-firstDone:
		// Common case: the first side has already proceeded (it releases
		// immediately when it has no action), so no timer is ever built.
	default:
		timer := time.NewTimer(timeout)
		select {
		case <-firstDone:
		case <-timer.C:
			// Defensive: never block forever even if the first side stalls.
		}
		timer.Stop()
	}
	if e.OrderWindow > 0 {
		deadline := time.Now().Add(e.OrderWindow)
		for time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
}

// findPartner scans the shard's postponed set for the oldest waiter that
// is a valid partner for t: the opposite side of the breakpoint (the
// paper's i != j condition), a different goroutine, and a satisfied
// joint predicate (evaluated, as in the paper's library, as the arriving
// side's predicateGlobal against the postponed side). The predicate
// runs isolated: if it panics, the scan stops and the waiter whose
// pairing panicked is returned as poisoned along with the panic value,
// so the caller can release it and absorb the failure. Caller holds
// s.mu.
func (s *bpState) findPartner(t Trigger, first bool, gid uint64, fault guard.Fault) (best, poisoned *waiter, pv any) {
	for _, w := range s.postponed {
		if w.state != waiterWaiting || w.gid == gid || w.first == first {
			continue
		}
		other := w.t
		ok, p, panicked := protectBool(func() bool {
			if fault.PanicGlobal {
				panic(guard.InjectedPanic{Breakpoint: s.name, Site: "global"})
			}
			return t.PredicateGlobal(other)
		})
		if panicked {
			return nil, w, p
		}
		if !ok {
			continue
		}
		if best == nil || w.seq < best.seq {
			best = w
		}
	}
	return best, nil, nil
}

// PostponedCount returns the number of goroutines currently postponed on
// the named breakpoint (both sides). Mainly for tests and diagnostics.
func (e *Engine) PostponedCount(name string) int {
	s, ok := e.lookupShard(name)
	if !ok {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.postponed)
}
