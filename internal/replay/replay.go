// Package replay turns concurrent breakpoints into schedule constraints,
// realizing the paper's section 8 discussion: a set of breakpoints, each
// pinning the resolution of one conflict state, restricts the set of
// feasible thread schedules; enough of them pin a unique schedule, which
// makes concurrent unit tests ("run exactly the buggy interleaving")
// expressible without a special runtime.
//
// Two tools are provided:
//
//   - Schedule: a named-point total order. Threads call Reach(point);
//     each call blocks until every earlier point in the declared order
//     has been reached. Like breakpoints, the wait is bounded by a
//     timeout so a wrong declaration degrades to the natural schedule
//     (recorded as a violation) instead of deadlocking the test.
//   - Regression: a wrapper that runs a function while asserting that a
//     given set of breakpoints was hit — the paper's "keep the
//     breakpoints as a regression test" workflow.
package replay

import (
	"sort"
	"sync"
	"time"

	"cbreak/internal/core"
)

// Schedule is a declared total order over named points. It is safe for
// concurrent use; each Reach call consumes the next occurrence of its
// point in the declared order.
type Schedule struct {
	mu      sync.Mutex
	cond    *sync.Cond
	points  []string
	next    int
	timeout time.Duration

	waiting    map[string]int // points with a Reach call currently blocked
	violations []Violation
}

// NewSchedule declares an order of points. timeout bounds each Reach
// wait; zero means one second.
func NewSchedule(timeout time.Duration, points ...string) *Schedule {
	if timeout <= 0 {
		timeout = time.Second
	}
	s := &Schedule{points: points, timeout: timeout, waiting: make(map[string]int)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Reach blocks the caller until point is the next undone point in the
// schedule, then marks it done and returns true. If the wait exceeds the
// schedule's timeout — the declared order is infeasible for this run —
// the violation is recorded, the point is treated as consumed out of
// order, and Reach returns false.
func (s *Schedule) Reach(point string) bool {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	// ready: point is next, or the schedule no longer constrains it
	// (past its end, or no occurrence of point left).
	ready := func() bool {
		return s.next >= len(s.points) || s.points[s.next] == point || !s.contains(point)
	}
	if !ready() {
		s.waiting[point]++
		ok := await(s.cond, start.Add(s.timeout), ready)
		if s.waiting[point]--; s.waiting[point] == 0 {
			delete(s.waiting, point)
		}
		if !ok {
			s.violations = append(s.violations, Violation{
				Point:   point,
				Blocker: s.points[s.next],
				Pending: s.otherWaiters(point),
				Wait:    time.Since(start),
			})
			return false
		}
	}
	if s.next < len(s.points) && s.points[s.next] == point {
		s.next++
		s.cond.Broadcast()
	}
	return true
}

// await waits on c, whose lock the caller holds, until ready reports
// true (it returns true) or the deadline passes first (false). One timer
// broadcasts under the lock at the deadline, so a waiter that no
// Broadcast reaches still wakes to give up.
func await(c *sync.Cond, deadline time.Time, ready func() bool) bool {
	if ready() {
		return true
	}
	t := time.AfterFunc(time.Until(deadline), func() {
		c.L.Lock()
		defer c.L.Unlock()
		c.Broadcast()
	})
	defer t.Stop()
	for !ready() {
		if !time.Now().Before(deadline) {
			return false
		}
		c.Wait()
	}
	return true
}

// otherWaiters lists the points (other than point) with a Reach call
// currently blocked, sorted. Called with s.mu held.
func (s *Schedule) otherWaiters(point string) []string {
	var out []string
	for p := range s.waiting {
		if p != point {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// contains reports whether point still occurs at or after next.
func (s *Schedule) contains(point string) bool {
	for _, p := range s.points[s.next:] {
		if p == point {
			return true
		}
	}
	return false
}

// Done reports whether every declared point has been reached in order.
func (s *Schedule) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next >= len(s.points)
}

// Violations returns the recorded out-of-order waits, formatted.
func (s *Schedule) Violations() []string {
	return formatViolations(s.ViolationDetails())
}

// ViolationDetails returns the structured records of the timed-out
// waits: which point was stuck, which declared point never arrived, and
// what else was blocked at that moment.
func (s *Schedule) ViolationDetails() []Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Violation(nil), s.violations...)
}

// Regression asserts that running a concurrent scenario hits a set of
// breakpoints — the executable form of "keep the concurrent breakpoints
// of a fixed Heisenbug as a regression test".
type Regression struct {
	// Engine is the breakpoint engine the scenario's triggers use.
	Engine *core.Engine
	// Required lists breakpoint names that must all be hit.
	Required []string
}

// Result is the outcome of a regression run.
type Result struct {
	// Hit maps each required breakpoint to whether it was hit.
	Hit map[string]bool
	// AllHit is true when every required breakpoint was hit.
	AllHit bool
}

// Run resets the engine, executes the scenario, and checks the required
// breakpoints' hit counts.
func (r *Regression) Run(scenario func()) Result {
	r.Engine.Reset()
	scenario()
	res := Result{Hit: make(map[string]bool, len(r.Required)), AllHit: true}
	for _, name := range r.Required {
		hit := r.Engine.Stats(name).Hits() > 0
		res.Hit[name] = hit
		if !hit {
			res.AllHit = false
		}
	}
	return res
}

// String formats the result for test logs.
func (res Result) String() string {
	if res.AllHit {
		return "regression: all breakpoints hit"
	}
	out := "regression: MISSED:"
	for name, hit := range res.Hit {
		if !hit {
			out += " " + name
		}
	}
	return out
}
