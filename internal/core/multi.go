package core

// This file holds the entry points of the paper's section 2
// generalization: concurrent breakpoints over more than two threads. A
// breakpoint of arity n is a tuple (l1, ..., ln, phi); it is reached
// when n distinct goroutines sit at their slots with phi satisfied, and
// the action releases them in slot order (slot 0's next instruction
// first, then slot 1's, ...). A two-way breakpoint is the arity-2 case:
// TriggerHere's first-action side is slot 0 and its second-action side
// slot 1, and every arity takes the same arrival path (engine.go).
//
// The joint predicate phi is evaluated pairwise: a group matches when
// PredicateGlobal holds for every pair of participants, each pair
// checked once as the later arrival's predicate against the earlier
// one's (match, engine.go). For the built-in trigger classes, whose
// joint predicates are symmetric, this coincides with the natural
// group predicate (e.g. all sides referencing the same object).

// TriggerHereMulti announces that the calling goroutine reached slot
// `slot` of the n-way breakpoint t (slots are 0-based; slot order is the
// release order). It returns true when the full group rendezvoused.
func (e *Engine) TriggerHereMulti(t Trigger, slot, arity int, opts Options) bool {
	if !e.enabled.Load() {
		return false
	}
	return e.shard(nameOf(t)).triggerMulti(t, slot, arity, opts, nil) == OutcomeHit
}

// TriggerHereMultiAnd is TriggerHereMulti with the slot's guarded next
// instruction supplied as action: on a hit, actions run strictly in slot
// order; on a miss, action runs before the call returns.
func (e *Engine) TriggerHereMultiAnd(t Trigger, slot, arity int, opts Options, action func()) bool {
	if !e.enabled.Load() {
		if action != nil {
			action()
		}
		return false
	}
	return e.shard(nameOf(t)).triggerMulti(t, slot, arity, opts, action) == OutcomeHit
}

// triggerMulti checks an n-way call's slot and arity, then arrives like
// every other call (trigger). An invalid call runs its action and
// reports OutcomeLocalFalse.
func (s *bpState) triggerMulti(t Trigger, slot, arity int, opts Options, action func()) Outcome {
	if arity < 2 || slot < 0 || slot >= arity {
		if action != nil {
			action()
		}
		return OutcomeLocalFalse
	}
	return s.trigger(t, slot, arity, opts, action)
}
