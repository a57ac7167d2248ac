// Package core implements concurrent breakpoints and the BTrigger
// mechanism from "Concurrent Breakpoints" (Park and Sen, UCB/EECS-2011-159,
// PPoPP 2012).
//
// A concurrent breakpoint is a tuple (l1, l2, phi): two program locations
// and a predicate over the joint local state of two threads. An execution
// triggers the breakpoint when two distinct goroutines are at l1 and l2
// with phi satisfied; the runtime then orders the first location's next
// instruction before the second's.
//
// The predicate phi decomposes as phi_t1 && phi_t2 && phi_t1t2, where
// phi_ti refers only to thread-local state of ti and phi_t1t2 relates the
// two. In this library a Trigger value carries the local state of one
// side: PredicateLocal evaluates phi_ti and PredicateGlobal evaluates
// phi_t1t2 against the other side's Trigger.
//
// BTrigger (Engine.TriggerHere) postpones a goroutine whose local
// predicate holds for up to a timeout, waiting for a partner whose global
// predicate matches. On a match the breakpoint is hit and the two
// goroutines are released in breakpoint order; on timeout the goroutine
// simply continues, so breakpoints can never deadlock the program.
package core

import "time"

// Trigger is one side of a concurrent breakpoint. A Trigger encapsulates
// the local state of the goroutine that reached the breakpoint location,
// exactly like the abstract BTrigger class of the paper's Java library.
//
// Two Trigger values belong to the same breakpoint when they share a
// Name. PredicateLocal is phi_ti over this side's local state;
// PredicateGlobal is phi_t1t2 evaluated against the partner side.
//
// The set of classes is closed: ConflictTrigger, DeadlockTrigger and
// PredTrigger (triggers.go) are the only implementations, and a
// PredTrigger expresses any other predicate. The engine relies on this
// to keep a caller's trigger off the heap.
type Trigger interface {
	// Name identifies the breakpoint. Two Trigger instances with the
	// same name are part of the same concurrent breakpoint.
	Name() string

	// PredicateLocal reports whether this side's local predicate holds.
	// A goroutine is only postponed when PredicateLocal returns true.
	PredicateLocal() bool

	// PredicateGlobal reports whether the joint predicate holds against
	// the other side of the breakpoint. It is called with the partner's
	// Trigger once both sides have arrived.
	PredicateGlobal(other Trigger) bool

	// builtin closes the set of classes to this package's.
	builtin()
}

// Options refine a TriggerHere call site. The zero value uses the
// engine's defaults. IgnoreFirst and Bound implement the local-predicate
// refinements of section 6.3 of the paper; ExtraLocal attaches an
// arbitrary extra conjunct to the local predicate (for example a
// lock-class-held check).
type Options struct {
	// Timeout bounds the postponement (the pause time T of the paper).
	// Zero means the engine's DefaultTimeout.
	Timeout time.Duration

	// IgnoreFirst skips this side's first n arrivals whose local
	// predicate would otherwise hold (paper: thisBreakpointHit > n).
	// The count is kept per (breakpoint, side) in the engine, so it
	// persists across Trigger instances.
	IgnoreFirst int

	// Bound stops the breakpoint after it has been hit n times
	// (paper: triggers < bound). Zero means unbounded.
	Bound int

	// ExtraLocal, when non-nil, is and-ed into the local predicate.
	ExtraLocal func() bool
}

// Outcome describes what happened at a TriggerHere call.
type Outcome int

const (
	// OutcomeDisabled: the engine is disabled; the call was a no-op.
	OutcomeDisabled Outcome = iota
	// OutcomeLocalFalse: the local predicate did not hold.
	OutcomeLocalFalse
	// OutcomeTimeout: the goroutine was postponed but no partner
	// arrived within the timeout.
	OutcomeTimeout
	// OutcomeHit: the breakpoint was reached and ordered.
	OutcomeHit
	// OutcomePanic: a user closure (predicate or action) panicked; the
	// panic was absorbed by the hardening layer, any postponed partner
	// was released, and the incident was logged.
	OutcomePanic
	// OutcomeShed: the overload layer (OverloadConfig) passed the
	// arrival straight through without postponement: a postponed
	// population was at its bound, or the breakpoint's timeout-rate
	// trip was open.
	OutcomeShed
)

// String returns a short human-readable form of the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeDisabled:
		return "disabled"
	case OutcomeLocalFalse:
		return "local-false"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeHit:
		return "hit"
	case OutcomePanic:
		return "panic"
	case OutcomeShed:
		return "shed"
	default:
		return "unknown"
	}
}
