package core

import (
	"fmt"
	"time"

	"cbreak/internal/guard"
	"cbreak/internal/telemetry"
)

// This file threads the internal/guard hardening layer through the
// engine: panic isolation for user closures, the incident log, and the
// fault injection hooks. The goal is the paper's production story made
// real: an enabled breakpoint must never be able to crash or stall the
// host program, no matter what its predicates and actions do.

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
// panics, stalls, forced releases, trip transitions, sheds), oldest
// first.
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

// record records n, once the shard mutex it was decided under is
// released, and counts trips and rearms in st.
func (e *Engine) record(n note, name string, gid uint64, st *BPStats) {
	if n.detail == "" {
		return
	}
	switch n.kind {
	case guard.KindBreakerTrip:
		st.trip()
	case guard.KindBreakerRearm:
		st.rearm()
	}
	e.recordIncident(n.kind, name, gid, n.detail)
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
// instead of unwinding through the caller. A trigger without a local
// predicate of its own, and with no injected PanicLocal, sets up no
// isolation for it.
func (e *Engine) evalLocal(name string, t Trigger, first bool, opts Options, st *BPStats, fault guard.Fault) (ok bool, pv any, panicked bool) {
	if local := localOf(t); local != nil || fault.PanicLocal {
		ok, pv, panicked = protectBool(func() bool {
			if fault.PanicLocal {
				panic(guard.InjectedPanic{Breakpoint: name, Site: "local"})
			}
			return local == nil || local()
		})
		if panicked || !ok {
			return
		}
	}
	ok = true
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

// execAction runs a call-site action under the hardening policy
// (runAction). With no action and no injected fault there is nothing to
// run, and the call returns at once.
func (e *Engine) execAction(name string, gid uint64, st *BPStats, fault guard.Fault, budget time.Duration, action func()) (panicked bool) {
	if action == nil && fault.Zero() {
		return false
	}
	return e.runAction(name, gid, st, fault, budget, action)
}

// runAction applies injected stalls and panics to a call-site action,
// recovers and logs its panics, logs stalls past the handshake budget,
// and re-throws or absorbs the panic per SetIsolateActionPanics. It
// reports whether an absorbed panic should turn the call's outcome into
// OutcomePanic.
func (e *Engine) runAction(name string, gid uint64, st *BPStats, fault guard.Fault, budget time.Duration, action func()) (panicked bool) {
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
