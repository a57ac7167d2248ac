// Package faultinject is the deterministic fault-injection harness for
// the breakpoint engine. A Plan implements guard.Injector: it matches
// trigger arrivals by breakpoint name, side, and per-(name, side)
// arrival ordinal, and injects the guard.Fault declared for them —
// predicate panics, action panics, stalled actions and dropped
// arrivals (partner no-shows).
//
// Because faults are keyed by arrival ordinals rather than randomness,
// a chaos run is reproducible: the same scenario with the same plan
// injects the same faults at the same call sites. The app reproductions
// under internal/apps use plans for chaos-style tests (inject faults,
// assert the engine stays consistent).
package faultinject

import (
	"sync"
	"time"

	"cbreak/internal/guard"
)

// Side selects which breakpoint side a rule applies to.
type Side int

// Rule sides.
const (
	// BothSides: the rule matches first- and second-action arrivals.
	BothSides Side = iota
	// FirstSide: only first-action (slot 0) arrivals.
	FirstSide
	// SecondSide: only second-action (slot > 0) arrivals.
	SecondSide
)

func (s Side) matches(first bool) bool {
	switch s {
	case FirstSide:
		return first
	case SecondSide:
		return !first
	default:
		return true
	}
}

// rule is one fault declaration.
type rule struct {
	breakpoint string
	side       Side
	// occurrences lists the 1-based arrival ordinals (per breakpoint
	// and matching side) the rule fires on; empty means every arrival.
	occurrences []int
	fault       guard.Fault
}

func (r rule) firesOn(n int) bool {
	if len(r.occurrences) == 0 {
		return true
	}
	for _, o := range r.occurrences {
		if o == n {
			return true
		}
	}
	return false
}

// Applied records one injected fault, for asserting determinism.
type Applied struct {
	// Breakpoint and First identify the arrival.
	Breakpoint string
	First      bool
	// Occurrence is the 1-based arrival ordinal the fault fired on.
	Occurrence int
	// Fault is what was injected.
	Fault guard.Fault
}

// Plan is a deterministic set of fault rules. Declare rules with the
// builder methods, install the plan with Engine.SetInjector, and run
// the scenario; Applied() then lists exactly which faults fired.
// A Plan is safe for concurrent use.
type Plan struct {
	mu      sync.Mutex
	rules   []rule
	arrival map[string][2]int // per-breakpoint arrival counts by side
	applied []Applied
}

// NewPlan returns an empty plan (injects nothing).
func NewPlan() *Plan { return &Plan{arrival: make(map[string][2]int)} }

// Add declares a fully custom fault rule; occurrences are 1-based
// per-(breakpoint, matching side) arrival ordinals, empty = always.
func (p *Plan) Add(breakpoint string, side Side, f guard.Fault, occurrences ...int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = append(p.rules, rule{breakpoint: breakpoint, side: side,
		occurrences: occurrences, fault: f})
	return p
}

// PanicLocal makes the local predicate panic on the given arrivals.
func (p *Plan) PanicLocal(breakpoint string, side Side, occurrences ...int) *Plan {
	return p.Add(breakpoint, side, guard.Fault{PanicLocal: true}, occurrences...)
}

// PanicGlobal makes the joint predicate panic on the given arrivals.
func (p *Plan) PanicGlobal(breakpoint string, side Side, occurrences ...int) *Plan {
	return p.Add(breakpoint, side, guard.Fault{PanicGlobal: true}, occurrences...)
}

// PanicExtra makes Options.ExtraLocal panic on the given arrivals.
func (p *Plan) PanicExtra(breakpoint string, side Side, occurrences ...int) *Plan {
	return p.Add(breakpoint, side, guard.Fault{PanicExtra: true}, occurrences...)
}

// PanicAction makes the action closure panic on the given arrivals.
func (p *Plan) PanicAction(breakpoint string, side Side, occurrences ...int) *Plan {
	return p.Add(breakpoint, side, guard.Fault{PanicAction: true}, occurrences...)
}

// StallAction sleeps d inside the action on the given arrivals.
func (p *Plan) StallAction(breakpoint string, side Side, d time.Duration, occurrences ...int) *Plan {
	return p.Add(breakpoint, side, guard.Fault{StallAction: d}, occurrences...)
}

// Drop discards the given arrivals before matching, so the partner
// experiences a no-show.
func (p *Plan) Drop(breakpoint string, side Side, occurrences ...int) *Plan {
	return p.Add(breakpoint, side, guard.Fault{Drop: true}, occurrences...)
}

// Arrival implements guard.Injector: it counts the arrival and merges
// every matching rule's fault into the result.
func (p *Plan) Arrival(breakpoint string, first bool) guard.Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	counts := p.arrival[breakpoint]
	idx := 0
	if first {
		idx = 1
	}
	counts[idx]++
	p.arrival[breakpoint] = counts
	n := counts[idx]

	var f guard.Fault
	for _, r := range p.rules {
		if r.breakpoint != breakpoint || !r.side.matches(first) || !r.firesOn(n) {
			continue
		}
		f = merge(f, r.fault)
	}
	if !f.Zero() {
		p.applied = append(p.applied, Applied{
			Breakpoint: breakpoint, First: first, Occurrence: n, Fault: f})
	}
	return f
}

// Applied returns the faults injected so far, in injection order.
func (p *Plan) Applied() []Applied {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Applied(nil), p.applied...)
}

// Arrivals returns how many arrivals of the breakpoint the plan has
// seen on the given side.
func (p *Plan) Arrivals(breakpoint string, first bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := 0
	if first {
		idx = 1
	}
	return p.arrival[breakpoint][idx]
}

func merge(a, b guard.Fault) guard.Fault {
	a.PanicLocal = a.PanicLocal || b.PanicLocal
	a.PanicGlobal = a.PanicGlobal || b.PanicGlobal
	a.PanicExtra = a.PanicExtra || b.PanicExtra
	a.PanicAction = a.PanicAction || b.PanicAction
	a.Drop = a.Drop || b.Drop
	if b.StallAction > a.StallAction {
		a.StallAction = b.StallAction
	}
	return a
}
