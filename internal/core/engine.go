package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cbreak/internal/guard"
	"cbreak/internal/locks"
	"cbreak/internal/telemetry"
)

// Engine implements the BTrigger mechanism: it keeps the set of
// postponed goroutines, matches arriving triggers against it, and
// enforces the ordering action of a hit breakpoint.
//
// State is sharded per breakpoint name (shard.go): each breakpoint owns
// its own mutex, postponed set, statistics, and trip state, so
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

	// OrderWindow is how long each later slot of a hit breakpoint (the
	// second-action side of a two-way one) yields after the slot before
	// it has been released. It gives the earlier side's next
	// instruction time to execute first when that side used plain
	// TriggerHere (no explicit handshake).
	OrderWindow time.Duration

	// registry maps breakpoint name → *bpState. Reset swaps the whole
	// map atomically and retires the old shards, which is why the
	// pointer indirection exists (see shard.go).
	registry atomic.Pointer[sync.Map]

	eventSeq atomic.Uint64 // published-event sequence; taken only when the bus has a listener
	onHit    atomic.Pointer[onHitBox]

	// bus is the engine's telemetry bus: every event and incident is
	// published on it, and every consumer — durable journal sink
	// (durable.go, attached as a synchronous tap), live NDJSON streams,
	// stream metric counters — hangs off it. With no listeners a publish
	// is one atomic load.
	bus     *telemetry.Bus
	durable durableState // tracks the durable sink's bus tap (durable.go)

	// postponedTotal counts currently-postponed goroutines across all
	// shards. Maintained where a shard's postponed set grows or is
	// pruned; the overload layer (overload.go) and the wait-graph
	// supervisor read it lock-free.
	postponedTotal atomic.Int64

	// Overload protection (overload.go): bounded postponed populations,
	// adaptive postponement budgets and the timeout-rate trip. The
	// pointed-to config is immutable; SetOverloadConfig swaps in a new
	// one.
	overloadCfg atomic.Pointer[OverloadConfig]

	// Hardening layer (hardening.go): incident log, fault injector,
	// action-panic policy.
	incidents           guard.IncidentLog
	injector            atomic.Value // *injectorBox
	isolateActionPanics atomic.Bool
}

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

// Reset discards all postponed waiters, statistics, and trip state.
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

// waiter states, guarded by the owning shard's mutex. A waiter is in
// its shard's postponed set exactly while it is waiterWaiting.
const (
	waiterWaiting = iota
	waiterMatched
	waiterCancelled
)

// waiter is one postponed arrival at slot slot of an arity-arity
// breakpoint. A two-way call is slot 0 (the first-action side) or slot
// 1 of arity 2.
type waiter struct {
	t        Trigger
	slot     int
	arity    int
	gid      uint64
	ch       chan turn     // buffered, capacity 1: the waiter's turn when its group matches
	cancelCh chan struct{} // closed by Reset or ForceRelease to release the waiter
	state    int           // guarded by shard mu

	// deadline is when the granted postponement budget expires, for
	// the wait-graph supervisor's view of the waiter.
	deadline time.Time
	// cancelOutcome is the outcome a cancelled waiter reports, set
	// under the shard mutex before cancelCh is closed (OutcomeTimeout
	// for Reset and ForceRelease, OutcomePanic for poisoned-predicate
	// release).
	// The close of cancelCh publishes it, so the released goroutine
	// reads it without re-taking the lock.
	cancelOutcome Outcome
}

// cancel releases a postponed waiter with the given outcome; the
// caller then prunes the postponed set. Caller holds the shard mutex.
func (w *waiter) cancel(out Outcome) {
	w.state = waiterCancelled
	w.cancelOutcome = out
	close(w.cancelCh)
}

// turn is one participant's place in a hit's release chain: it waits
// for prev to close (nil for slot 0, which goes at once) and closes
// next once it has proceeded (nil for the last slot).
type turn struct {
	prev, next chan struct{}
}

// slotOf returns a two-way call's slot: the first-action side is slot 0
// of an arity-2 breakpoint, the second-action side slot 1.
func slotOf(first bool) int {
	if first {
		return 0
	}
	return 1
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
// The two sides are slots 0 and 1 of an arity-2 breakpoint, so a
// TriggerHereMulti call at either slot of arity 2 is a partner too.
//
// TriggerHere resolves the breakpoint's shard by name on every call;
// hot call sites can hoist the lookup with Engine.Breakpoint.
func (e *Engine) TriggerHere(t Trigger, first bool, opts Options) bool {
	if !e.enabled.Load() {
		return false
	}
	return e.shard(nameOf(t)).trigger(t, slotOf(first), 2, opts, nil) == OutcomeHit
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
	return e.shard(nameOf(t)).trigger(t, slotOf(first), 2, opts, action) == OutcomeHit
}

// TriggerOutcome is TriggerHere returning the full outcome rather than
// just hit/miss; useful for tests and statistics.
func (e *Engine) TriggerOutcome(t Trigger, first bool, opts Options) Outcome {
	if !e.enabled.Load() {
		return OutcomeDisabled
	}
	return e.shard(nameOf(t)).trigger(t, slotOf(first), 2, opts, nil)
}

// trigger is the arrival path of every call, whatever its arity: slot
// slot of an arity-arity breakpoint on shard s, resolved by the caller
// (by name, or pinned on a handle); all state the arrival touches lives
// on it or its engine. A disabled arrival returns here, without setting
// up the stack frame of the rendezvous body (arrive). trigger and
// arrive are shard methods so that their arguments fit the amd64
// register ABI's nine integer registers: an engine argument as well
// would push the Options onto the stack on every call.
func (s *bpState) trigger(t Trigger, slot, arity int, opts Options, action func()) Outcome {
	if !s.eng.enabled.Load() || s.disabled.Load() {
		if action != nil {
			action()
		}
		return OutcomeDisabled
	}
	return s.arrive(t, slot, arity, opts, action)
}

// arrive is an enabled arrival: the local predicate, then matching on
// the shard, then postponement or a shed (admit). Slot 0 counts as the
// breakpoint's first-action side and every other slot as its second,
// in the statistics, the fault hooks and the published events.
func (s *bpState) arrive(t Trigger, slot, arity int, opts Options, action func()) Outcome {
	if t == nil {
		panic(nilTrigger)
	}
	e := s.eng
	name := s.name
	st := s.stats
	first := slot == 0
	st.arrived(first)
	fault := e.faultFor(name, first)

	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = e.DefaultTimeout
	}

	ok, pv, panicked := e.evalLocal(name, t, first, opts, st, fault)
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

	gid := locks.GoroutineID()
	e.logEvent(s, EventArrived, gid, first)

	// Lock the live shard; a racing Reset may have retired s, in which
	// case we continue on its replacement (and its counters).
	s = e.lockLive(s)
	st = s.stats
	// Try to complete a group with already-postponed waiters. The
	// matcher's index stack lives in idx, so it allocates nothing up to
	// arity 9.
	var idx [8]int
	group, poisoned, gpv := s.match(idx[:0], t, slot, arity, gid, fault)
	if poisoned != nil {
		// The joint predicate panicked against this waiter: release it
		// so nothing stays postponed behind a broken predicate, and
		// absorb the panic.
		poisoned.cancel(OutcomePanic)
		s.prune()
		s.mu.Unlock()
		return e.absorbPredPanic(name, "global", gid, st, fault, gpv, action)
	}
	ov := e.overloadCfg.Load()
	if group != nil {
		st.hit()
		rearm := s.trip.hit(ov, arity)
		e.logEvent(s, EventHit, gid, first)
		// The hit callback runs once the shard mutex is released, so it
		// may call back into the engine, and before the group's waiters
		// get their turns, so no side proceeds until it returns. The
		// partner's trigger is read while the group is still in the
		// postponed set.
		cb := e.onHit.Load()
		var partner Trigger
		if cb != nil {
			partner = s.postponed[group[0]].t
		}
		var hs [8]handoff
		tn, matched := s.chain(hs[:0], group, slot, arity)
		s.mu.Unlock()
		e.record(rearm, name, gid, st)
		if cb != nil {
			cb.run(name, t, partner, matched)
		} else {
			deliver(matched)
		}
		return e.proceed(name, gid, st, fault, tn, action, timeout)
	}

	// No group yet: postpone ourselves, unless the overload layer sheds
	// the arrival (overload.go). A shed arrival passes straight
	// through, trading hit probability for a bounded postponed
	// population or for a tripped breakpoint's cost.
	now := time.Now()
	adm, shed := s.admit(ov, now)
	if shed {
		s.mu.Unlock()
		st.shed(first)
		e.record(adm, name, gid, st)
		if e.execAction(name, gid, st, fault, 0, action) {
			return OutcomePanic
		}
		return OutcomeShed
	}
	// Under pressure the granted budget shrinks below the requested
	// timeout (overload.go), draining the backlog faster as it grows.
	budget := ov.budget(timeout, e.postponedTotal.Load())
	w := &waiter{t: heapCopy(t), slot: slot, arity: arity, gid: gid,
		ch: make(chan turn, 1), cancelCh: make(chan struct{}),
		deadline: now.Add(budget)}
	s.postponed = append(s.postponed, w)
	e.postponedTotal.Add(1)
	st.postpone(first)
	s.mu.Unlock()
	e.record(adm, name, gid, st)
	e.logEvent(s, EventPostponed, gid, first)

	timer := time.NewTimer(budget)
	defer timer.Stop()
	start := time.Now()
	out := OutcomeHit
	var tn turn
	select {
	case tn = <-w.ch:
	case <-w.cancelCh:
		// Reset, ForceRelease, or a poisoned-predicate release freed us.
		// The close happens after cancelOutcome was set under the shard
		// mutex, so the plain read is ordered.
		out = w.cancelOutcome
	case <-timer.C:
		s.mu.Lock()
		switch w.state {
		case waiterMatched:
			// Matched concurrently with the timeout; honor the match.
			s.mu.Unlock()
			tn = <-w.ch
		case waiterCancelled:
			// Released concurrently; honor the release. A ForceRelease
			// closes cancelCh only after recording its incident.
			s.mu.Unlock()
			<-w.cancelCh
			out = w.cancelOutcome
		default:
			w.state = waiterCancelled
			s.prune()
			trip := s.trip.timedOut(e.overloadCfg.Load(), time.Now(), timeout)
			s.mu.Unlock()
			st.timeout(first)
			e.logEvent(s, EventTimeout, gid, first)
			e.record(trip, name, gid, st)
			out = OutcomeTimeout
		}
	}
	st.addWait(time.Since(start))
	if out == OutcomeHit {
		return e.proceed(name, gid, st, fault, tn, action, timeout)
	}
	if e.execAction(name, gid, st, fault, timeout, action) {
		return OutcomePanic
	}
	return out
}

// proceed runs one participant's turn in a hit's release chain. Slot 0
// goes at once; every later slot waits for the slot before it (awaitTurn)
// and then runs its action. Each slot releases the next after its
// action; the release is deferred so a panicking action (e.g. the
// guarded instruction throwing the very exception the breakpoint
// reproduces) still frees the rest of the chain, whether the panic is
// re-thrown or absorbed (SetIsolateActionPanics). Without an action the
// next slot is released at once, and its ordering window gives this
// goroutine's next instruction time to run first.
func (e *Engine) proceed(name string, gid uint64, st *BPStats, fault guard.Fault, tn turn, action func(), timeout time.Duration) Outcome {
	if tn.prev != nil {
		e.awaitTurn(tn.prev, timeout)
	}
	if tn.next != nil {
		if action == nil && fault.Zero() {
			close(tn.next)
			return OutcomeHit
		}
		defer close(tn.next)
	}
	if e.execAction(name, gid, st, fault, timeout, action) {
		return OutcomePanic
	}
	return OutcomeHit
}

// awaitTurn blocks a later slot until the slot before it has proceeded,
// then yields for the ordering window. The window is a Gosched spin
// rather than a sleep: OS timer quantization would stretch a
// sub-millisecond sleep to a full tick, letting the earlier side's
// *subsequent* instructions win the race against this side's next
// instruction and undoing the ordering the breakpoint promised.
func (e *Engine) awaitTurn(prev chan struct{}, timeout time.Duration) {
	select {
	case <-prev:
		// Common case: the earlier slot has already proceeded (it
		// releases immediately when it has no action), so no timer is
		// ever built.
	default:
		timer := time.NewTimer(timeout)
		select {
		case <-prev:
		case <-timer.C:
			// Defensive: never block forever even if the earlier slot stalls.
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

// match looks in the postponed set for the group that an arrival of t
// at slot of an arity-n breakpoint completes: one waiter of that arity
// at every other slot, all on distinct goroutines (the paper's i != j
// and t1 != t2 conditions), with the joint predicate holding for every
// pair. Each pair is checked once, as the later arrival's
// PredicateGlobal against the earlier one's; the arriving trigger is
// the latest of all, so at arity 2 this is the paper's library's check
// of the arriving side against the postponed side. The set is kept in
// arrival order and the search fills the slots in order, backtracking
// and trying older waiters first, so the oldest partner that matches
// wins. match appends the group's postponed-set indexes to idx in slot
// order (the arriving slot left out) and returns them, or nil when no
// group is complete. Predicates run isolated: on a panic the search
// stops and returns the waiter whose pairing panicked as poisoned,
// with the panic value. Caller holds s.mu.
func (s *bpState) match(idx []int, t Trigger, slot, arity int, gid uint64, fault guard.Fault) (group []int, poisoned *waiter, pv any) {
	ws := s.postponed
	from := 0 // first postponed index to try for the slot being filled
	for len(idx) < arity-1 {
		want := len(idx)
		if want >= slot {
			want++
		}
		i := from
		for ; i < len(ws); i++ {
			w := ws[i]
			if w.arity != arity || w.slot != want || w.gid == gid {
				continue
			}
			ok, p, panicked := s.fits(ws, idx, i, t, fault)
			if panicked {
				return nil, w, p
			}
			if ok {
				break
			}
		}
		if i < len(ws) {
			idx = append(idx, i)
			from = 0
			continue
		}
		// Nothing fits this slot beside the waiters chosen so far:
		// retry the previous slot with its next candidate.
		if len(idx) == 0 {
			return nil, nil, nil
		}
		from = idx[len(idx)-1] + 1
		idx = idx[:len(idx)-1]
	}
	return idx, nil, nil
}

// fits reports whether ws[i] can join the waiters chosen (indexes into
// ws) in the group the arriving trigger t completes: its goroutine is
// not theirs, and the joint predicate holds against t and each of them,
// checked as the later arrival's against the earlier one's.
func (s *bpState) fits(ws []*waiter, chosen []int, i int, t Trigger, fault guard.Fault) (ok bool, pv any, panicked bool) {
	w := ws[i]
	if ok, pv, panicked = s.joint(t, w.t, fault); !ok {
		return
	}
	for _, j := range chosen {
		c := ws[j]
		if c.gid == w.gid {
			return false, nil, false
		}
		later, earlier := w, c
		if j > i {
			later, earlier = c, w
		}
		if ok, pv, panicked = s.joint(later.t, earlier.t, fault); !ok {
			return
		}
	}
	return true, nil, false
}

// joint evaluates later's joint predicate against earlier in isolation:
// a panic, or an injected PanicGlobal fault, is returned, not thrown.
func (s *bpState) joint(later, earlier Trigger, fault guard.Fault) (ok bool, pv any, panicked bool) {
	return protectBool(func() bool {
		if fault.PanicGlobal {
			panic(guard.InjectedPanic{Breakpoint: s.name, Site: "global"})
		}
		return jointHolds(later, earlier)
	})
}

// handoff is a matched waiter and its turn in the hit's release chain.
type handoff struct {
	w  *waiter
	tn turn
}

// chain builds a matched group's release chain: it marks every waiter
// of the group matched, appends each one's turn to hs for deliver, and
// prunes the group from the postponed set; it returns the arriving
// participant's turn and hs. group holds the waiters' postponed-set
// indexes in slot order, the arriving slot left out. One channel links
// each slot to the next, so an arity-2 hit makes one. Caller holds s.mu.
func (s *bpState) chain(hs []handoff, group []int, slot, arity int) (mine turn, _ []handoff) {
	var prev chan struct{}
	for k := 0; k < arity; k++ {
		var next chan struct{}
		if k < arity-1 {
			next = make(chan struct{})
		}
		if k == slot {
			mine = turn{prev, next}
		} else {
			w := s.postponed[group[0]]
			group = group[1:]
			w.state = waiterMatched
			hs = append(hs, handoff{w, turn{prev, next}})
		}
		prev = next
	}
	s.prune()
	return mine, hs
}

// deliver hands each matched waiter its turn. A matched waiter has left
// the postponed set, so nothing else releases it: it waits for its turn
// even after its timer fires.
func deliver(hs []handoff) {
	for _, h := range hs {
		h.w.ch <- h.tn
	}
}

// PostponedCount returns the number of goroutines currently postponed on
// the named breakpoint, at every slot. Mainly for tests and diagnostics.
func (e *Engine) PostponedCount(name string) int {
	s, ok := e.lookupShard(name)
	if !ok {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.postponed)
}
