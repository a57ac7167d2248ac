package core

// This file provides the breakpoint classes of section 4 of the paper:
// ConflictTrigger (two sides over the same object: a data race, an
// atomicity violation or a missed notification), DeadlockTrigger
// (lock-order deadlocks), and the fully generic PredTrigger.
//
// The set is closed (Trigger's unexported method), so the engine never
// calls a trigger through the interface: it switches on the concrete
// class (nameOf, localOf, jointHolds). A call through the interface
// would let the trigger escape, and every call site would heap-allocate
// the trigger it builds. With the set closed the engine keeps no
// caller's trigger either: a postponed waiter keeps its own copy
// (heapCopy), so an arrival that is not postponed allocates nothing.

// objClass is the class of a ConflictTrigger: which of the paper's
// same-object breakpoints it is one side of.
type objClass uint8

const (
	classConflict objClass = iota
	classAtomicity
	classNotify
)

// ConflictTrigger represents one side of a breakpoint of the form
// (l1, l2, t1.obj == t2.obj): two goroutines about to touch the same
// object. It is the Go analog of the paper's ConflictTrigger class
// (Figure 6), and it carries the paper's two other same-object classes
// as well, each made by its own constructor:
//
//   - NewConflictTrigger: a data race or another same-object conflict,
//     where at least one access is a write;
//   - NewAtomicityTrigger: one side is inside a block that should be
//     atomic over the object while the other is about to interleave an
//     operation on it (the StringBuffer example of Figure 3, where
//     t1.sb == t2.this);
//   - NewNotifyTrigger: one side is about to notify a condition object
//     while the other is about to (but has not yet begun to) wait on
//     it. Ordering the notify before the wait makes the notification
//     miss, reproducing lost-wakeup stalls (the log4j, pool and jigsaw
//     bugs of the paper's evaluation).
//
// Two sides match when they share the class, the breakpoint name and
// the object. Objects are compared by interface identity, so pass
// pointers.
type ConflictTrigger struct {
	name  string
	obj   any
	class objClass
}

// NewConflictTrigger returns a conflict trigger for the named breakpoint
// guarding an access to obj.
func NewConflictTrigger(name string, obj any) *ConflictTrigger {
	return &ConflictTrigger{name: name, obj: obj, class: classConflict}
}

// NewAtomicityTrigger returns an atomicity-violation trigger for the
// named breakpoint over obj.
func NewAtomicityTrigger(name string, obj any) *ConflictTrigger {
	return &ConflictTrigger{name: name, obj: obj, class: classAtomicity}
}

// NewNotifyTrigger returns a missed-notification trigger for the named
// breakpoint over the condition object cond.
func NewNotifyTrigger(name string, cond any) *ConflictTrigger {
	return &ConflictTrigger{name: name, obj: cond, class: classNotify}
}

// Name implements Trigger.
func (c *ConflictTrigger) Name() string { return c.name }

// PredicateLocal implements Trigger; a same-object breakpoint has no
// local condition beyond reaching the location.
func (c *ConflictTrigger) PredicateLocal() bool { return true }

// PredicateGlobal implements Trigger: both sides must be of one class
// and reference the same object.
func (c *ConflictTrigger) PredicateGlobal(other Trigger) bool {
	o, ok := other.(*ConflictTrigger)
	return ok && o.class == c.class && o.name == c.name && o.obj == c.obj
}

func (*ConflictTrigger) builtin() {}

// DeadlockTrigger represents one side of a deadlock breakpoint: the
// thread holds Held and is about to acquire Want. The joint predicate is
// the classic cycle condition t1.held == t2.want && t1.want == t2.held
// (Figure 8 of the paper, where lok1 is the held lock and lok2 the one
// about to be acquired).
type DeadlockTrigger struct {
	name string
	// Held is the lock this side already holds.
	Held any
	// Want is the lock this side is about to acquire.
	Want any
}

// NewDeadlockTrigger returns a deadlock trigger for the named breakpoint,
// for a thread holding held and about to acquire want.
func NewDeadlockTrigger(name string, held, want any) *DeadlockTrigger {
	return &DeadlockTrigger{name: name, Held: held, Want: want}
}

// Name implements Trigger.
func (d *DeadlockTrigger) Name() string { return d.name }

// PredicateLocal implements Trigger.
func (d *DeadlockTrigger) PredicateLocal() bool { return true }

// PredicateGlobal implements Trigger: the two sides' held/want pairs must
// cross, which is exactly a two-lock deadlock state.
func (d *DeadlockTrigger) PredicateGlobal(other Trigger) bool {
	o, ok := other.(*DeadlockTrigger)
	return ok && o.name == d.name && d.Held == o.Want && d.Want == o.Held
}

func (*DeadlockTrigger) builtin() {}

// PredTrigger is a fully generic breakpoint side built from closures. It
// subsumes the other trigger classes and supports arbitrary phi_ti and
// phi_t1t2 predicates over captured local state: it is how to write a
// breakpoint that the built-in classes do not cover.
type PredTrigger struct {
	name string
	// State carries arbitrary local state for the Global predicate of
	// the partner side to inspect.
	State any
	// Local is phi_ti; nil means true.
	Local func() bool
	// Global is phi_t1t2, evaluated against the partner; nil means the
	// partner only has to share the breakpoint name.
	Global func(other *PredTrigger) bool
}

// NewPredTrigger returns a generic trigger with the given local state and
// predicates.
func NewPredTrigger(name string, state any, local func() bool, global func(other *PredTrigger) bool) *PredTrigger {
	return &PredTrigger{name: name, State: state, Local: local, Global: global}
}

// Name implements Trigger.
func (p *PredTrigger) Name() string { return p.name }

// PredicateLocal implements Trigger.
func (p *PredTrigger) PredicateLocal() bool { return p.Local == nil || p.Local() }

// PredicateGlobal implements Trigger.
func (p *PredTrigger) PredicateGlobal(other Trigger) bool {
	o, ok := other.(*PredTrigger)
	if !ok || o.name != p.name {
		return false
	}
	return p.Global == nil || p.Global(o)
}

func (*PredTrigger) builtin() {}

// nilTrigger is the panic of an arrival with a nil trigger. It panics
// at once, as a method call on the trigger would, rather than waiting
// out its timeout as a waiter that nothing matches.
const nilTrigger = "core: arrival with a nil Trigger"

// nameOf is t.Name() on the concrete class. The set is closed, so only
// a nil t reaches the end.
func nameOf(t Trigger) string {
	switch t := t.(type) {
	case *ConflictTrigger:
		return t.name
	case *DeadlockTrigger:
		return t.name
	case *PredTrigger:
		return t.name
	}
	panic(nilTrigger)
}

// localOf returns t's local predicate phi_ti, or nil when it has none:
// only a PredTrigger with Local set has one.
func localOf(t Trigger) func() bool {
	if p, ok := t.(*PredTrigger); ok {
		return p.Local
	}
	return nil
}

// jointHolds is later.PredicateGlobal(earlier) on the concrete class.
// A PredTrigger's Global closure receives earlier, so earlier is always
// a postponed waiter's copy, never an arriving caller's trigger.
func jointHolds(later, earlier Trigger) bool {
	switch l := later.(type) {
	case *ConflictTrigger:
		return l.PredicateGlobal(earlier)
	case *DeadlockTrigger:
		return l.PredicateGlobal(earlier)
	case *PredTrigger:
		return l.PredicateGlobal(earlier)
	}
	return false
}

// heapCopy returns a copy of t that the engine owns: a postponed waiter
// keeps one, and the hit callback receives one.
func heapCopy(t Trigger) Trigger {
	switch t := t.(type) {
	case *ConflictTrigger:
		c := *t
		return &c
	case *DeadlockTrigger:
		c := *t
		return &c
	case *PredTrigger:
		c := *t
		return &c
	}
	return nil
}
