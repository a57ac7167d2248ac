package core

import (
	"fmt"
	"time"

	"cbreak/internal/guard"
	"cbreak/internal/telemetry"
)

// This file threads the internal/guard hardening layer through the
// engine: panic isolation for user closures, per-breakpoint circuit
// breakers, the incident log, and the fault injection hooks. The goal
// is the paper's production story made real: an enabled breakpoint
// must never be able to crash or stall the host program, no matter
// what its predicates and actions do.

// injectorBox wraps the injector interface for atomic storage.
type injectorBox struct{ in guard.Injector }

// SetInjector installs a fault injector consulted on every trigger
// arrival (nil removes it). Production engines leave this unset and pay
// one atomic pointer load per arrival.
func (e *Engine) SetInjector(in guard.Injector) {
	if in == nil {
		e.injector.Store((*injectorBox)(nil))
		return
	}
	e.injector.Store(&injectorBox{in: in})
}

// faultFor asks the installed injector (if any) which faults to apply
// to this arrival.
func (e *Engine) faultFor(name string, first bool) guard.Fault {
	if b, _ := e.injector.Load().(*injectorBox); b != nil {
		return b.in.Arrival(name, first)
	}
	return guard.Fault{}
}

// SetIsolateActionPanics selects the action-panic policy. By default a
// panicking action is recorded and its partner released, but the panic
// is re-thrown to the caller — the action is the application's own
// guarded instruction, so its exceptions belong to the application.
// With isolation on, the panic is absorbed and the call returns
// OutcomePanic instead; use this when breakpoints ship in services that
// must never crash on instrumentation bugs.
func (e *Engine) SetIsolateActionPanics(v bool) { e.isolateActionPanics.Store(v) }

// Incidents returns the engine's retained hardening incidents (absorbed
// panics, stalls, forced releases, breaker transitions), oldest first.
func (e *Engine) Incidents() []guard.Incident { return e.incidents.Snapshot() }

// IncidentCount returns the monotonic total of incidents of one kind.
func (e *Engine) IncidentCount(k guard.IncidentKind) int64 { return e.incidents.Count(k) }

// IncidentCounts returns the monotonic incident totals keyed by kind
// label, omitting zero counts. Campaign trial records embed this map so
// campaign output doubles as a hardening observability artifact.
func (e *Engine) IncidentCounts() map[string]int64 {
	out := make(map[string]int64)
	for _, k := range guard.Kinds() {
		if n := e.incidents.Count(k); n > 0 {
			out[k.String()] = n
		}
	}
	return out
}

func (e *Engine) recordIncident(k guard.IncidentKind, name string, gid uint64, detail string) {
	in := guard.Incident{When: time.Now(), Kind: k, Breakpoint: name, GID: gid, Detail: detail}
	e.incidents.Record(in)
	e.bus.Publish(telemetry.Record{Kind: telemetry.RecordIncident, Incident: in})
}

// RecordIncident appends an incident to the engine's log on behalf of
// an external supervision layer (the wait-graph supervisor records its
// deadlock confirmations here, so one log tells the whole hardening
// story).
func (e *Engine) RecordIncident(k guard.IncidentKind, name string, gid uint64, detail string) {
	e.recordIncident(k, name, gid, detail)
}

// SetBreakerConfig enables per-breakpoint circuit breakers with the
// given configuration (zero fields take guard defaults), or disables
// them when cfg is nil. Existing breaker state is discarded either way:
// the engine's breaker epoch is bumped and each shard lazily rebuilds
// its breaker on next use (shard.breakerFor), so reconfiguration never
// stops the world.
func (e *Engine) SetBreakerConfig(cfg *guard.BreakerConfig) {
	if cfg == nil {
		e.breakerCfg.Store(nil)
	} else {
		c := *cfg
		e.breakerCfg.Store(&c)
	}
	e.brEpoch.Add(1)
}

// BreakerSnapshot returns the circuit-breaker state of the named
// breakpoint; ok is false when breakers are disabled or the breakpoint
// has not been seen since they were (re)configured.
func (e *Engine) BreakerSnapshot(name string) (guard.BreakerSnapshot, bool) {
	if e.breakerCfg.Load() == nil {
		return guard.BreakerSnapshot{}, false
	}
	s, ok := e.lookupShard(name)
	if !ok {
		return guard.BreakerSnapshot{}, false
	}
	epoch := e.brEpoch.Load()
	s.brMu.Lock()
	br, brEpoch := s.breaker, s.brEpoch
	s.brMu.Unlock()
	if br == nil || brEpoch != epoch {
		return guard.BreakerSnapshot{}, false
	}
	return br.Snapshot(), true
}

// reportBreaker feeds a postponement outcome into the breakpoint's
// breaker and logs any resulting state change.
func (e *Engine) reportBreaker(br *guard.Breaker, name string, st *BPStats, hit bool) {
	if br == nil {
		return
	}
	var tr guard.Transition
	if hit {
		tr = br.OnHit(time.Now())
	} else {
		tr = br.OnTimeout(time.Now())
	}
	e.noteBreakerTransition(name, st, br, tr)
}

func (e *Engine) noteBreakerTransition(name string, st *BPStats, br *guard.Breaker, tr guard.Transition) {
	switch tr {
	case guard.TransitionTripped, guard.TransitionReopened:
		st.trip()
		e.recordIncident(guard.KindBreakerTrip, name, 0, "circuit opened: "+br.Snapshot().String())
	case guard.TransitionProbe:
		e.recordIncident(guard.KindBreakerProbe, name, 0, "backoff expired; half-open probe admitted")
	case guard.TransitionRearmed:
		st.rearm()
		e.recordIncident(guard.KindBreakerRearm, name, 0, "probe hit; breaker closed")
	}
}

// protectBool runs a user predicate under recover.
func protectBool(fn func() bool) (ok bool, pv any, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			ok, pv, panicked = false, r, true
		}
	}()
	ok = fn()
	return
}

// evalLocal evaluates the effective local predicate (the trigger's
// PredicateLocal, the IgnoreFirst/Bound refinements, and ExtraLocal)
// with the user closures isolated: a panic is absorbed and reported
// instead of unwinding through the caller.
func (e *Engine) evalLocal(t Trigger, first bool, opts Options, st *BPStats, fault guard.Fault) (ok bool, pv any, panicked bool) {
	name := t.Name()
	ok, pv, panicked = protectBool(func() bool {
		if fault.PanicLocal {
			panic(guard.InjectedPanic{Breakpoint: name, Site: "local"})
		}
		return t.PredicateLocal()
	})
	if panicked || !ok {
		return
	}
	if opts.IgnoreFirst > 0 && st.sideArrivals(first) <= int64(opts.IgnoreFirst) {
		return false, nil, false
	}
	if opts.Bound > 0 && st.Hits() >= int64(opts.Bound) {
		return false, nil, false
	}
	if opts.ExtraLocal != nil {
		ok, pv, panicked = protectBool(func() bool {
			if fault.PanicExtra {
				panic(guard.InjectedPanic{Breakpoint: name, Site: "extra"})
			}
			return opts.ExtraLocal()
		})
	}
	return
}

// absorbPredPanic accounts for an absorbed predicate panic and runs the
// call's action (the application's instruction still belongs to the
// application even when the instrumentation broke).
func (e *Engine) absorbPredPanic(name, site string, gid uint64, st *BPStats, fault guard.Fault, pv any, action func()) Outcome {
	st.panicked()
	e.recordIncident(guard.KindPanic, name, gid, fmt.Sprintf("%s predicate panicked: %v", site, pv))
	e.execAction(name, gid, st, fault, 0, action)
	return OutcomePanic
}

// execAction runs a call-site action under the hardening policy:
// injected stalls and panics are applied, panics are recovered and
// logged, stalls past the handshake budget are logged, and the panic is
// re-thrown or absorbed per SetIsolateActionPanics. It reports whether
// an absorbed panic should turn the call's outcome into OutcomePanic.
func (e *Engine) execAction(name string, gid uint64, st *BPStats, fault guard.Fault, budget time.Duration, action func()) (panicked bool) {
	run := action
	if fault.PanicAction {
		run = func() {
			if action != nil {
				action()
			}
			panic(guard.InjectedPanic{Breakpoint: name, Site: "action"})
		}
	}
	if run == nil && fault.StallAction <= 0 {
		return false
	}
	start := time.Now()
	if fault.StallAction > 0 {
		time.Sleep(fault.StallAction)
	}
	var pv any
	if run != nil {
		_, pv, panicked = protectBool(func() bool { run(); return true })
	}
	if d := time.Since(start); budget > 0 && d > budget {
		e.recordIncident(guard.KindStall, name, gid,
			fmt.Sprintf("action ran %s, handshake budget %s", d.Round(time.Microsecond), budget))
	}
	if panicked {
		st.panicked()
		e.recordIncident(guard.KindPanic, name, gid, fmt.Sprintf("action panicked: %v", pv))
		if !e.isolateActionPanics.Load() {
			panic(pv)
		}
	}
	return panicked
}
