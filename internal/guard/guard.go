// Package guard is the engine's production-hardening layer. The paper's
// promise is that concurrent breakpoints "can stay in code, disabled,
// like assertions" — guard makes the enabled state shippable too, by
// ensuring that no user-supplied predicate, action, or wedged handshake
// can crash or stall the host program:
//
//   - panic isolation: user closures run under recover; a panicking
//     predicate becomes an OutcomePanic with an Incident, never an
//     engine crash (see internal/core's safe-evaluation wrappers).
//   - IncidentLog: a bounded, queryable record of everything the
//     hardening layer absorbed or decided (panics, stalls, forced
//     releases, sheds, and the state changes of internal/core's
//     timeout-rate trip, which sheds a breakpoint whose postponements
//     keep timing out).
//   - Injector/Fault: the contract the fault-injection harness
//     (internal/guard/faultinject) uses to deterministically drive the
//     engine into all of the failure modes above, so the hardening is
//     testable rather than aspirational.
//
// guard deliberately has no dependency on internal/core: core imports
// guard and threads these primitives through the trigger hot path.
package guard

import "time"

// Fault describes the faults to inject into a single TriggerHere (or
// TriggerHereMulti) arrival. The zero value injects nothing.
type Fault struct {
	// PanicLocal makes the local-predicate evaluation panic.
	PanicLocal bool
	// PanicGlobal makes the joint-predicate evaluation panic when this
	// arrival is matched against a postponed partner.
	PanicGlobal bool
	// PanicExtra makes the Options.ExtraLocal evaluation panic.
	PanicExtra bool
	// PanicAction makes the call's action closure panic (after the real
	// action, if any, has run).
	PanicAction bool
	// StallAction sleeps this long inside the action, simulating a
	// first-action side that wedges mid-handshake.
	StallAction time.Duration
	// Drop silently discards the arrival before matching: the goroutine
	// continues immediately and any partner sees a no-show.
	Drop bool
}

// Zero reports whether the fault injects nothing.
func (f Fault) Zero() bool { return f == Fault{} }

// Injector decides, per arrival, which faults to apply. Implementations
// must be safe for concurrent use; the engine consults the injector on
// the trigger path. Production engines have no injector installed and
// pay only a nil check.
type Injector interface {
	// Arrival is called once per trigger arrival with the breakpoint
	// name and side (first-action side for two-way breakpoints, slot 0
	// for multi-way) and returns the faults to inject into that call.
	Arrival(breakpoint string, first bool) Fault
}

// InjectedPanic is the value thrown by injected predicate/action panics,
// so tests can distinguish synthetic faults from real ones.
type InjectedPanic struct {
	// Breakpoint is the breakpoint the fault was injected into.
	Breakpoint string
	// Site names the closure that panicked (local/global/extra/action).
	Site string
}

func (p InjectedPanic) Error() string {
	return "injected panic at " + p.Breakpoint + " (" + p.Site + ")"
}
