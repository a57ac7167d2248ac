package replay

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"cbreak/internal/cycles"
)

// Graph pins a *partial* order over named program points: each point
// waits for its declared dependencies and nothing else, so independent
// points stay concurrent. It generalizes Schedule (a chain) the same way
// a set of concurrent breakpoints generalizes a single one — section 8's
// "limit the number of allowed thread schedules" with exactly the edges
// that matter.
//
// Like Schedule, waits are bounded: an infeasible declaration degrades
// to the natural schedule and is recorded as a violation instead of
// deadlocking the test.
type Graph struct {
	mu      sync.Mutex
	cond    *sync.Cond
	deps    map[string][]string
	done    map[string]bool
	timeout time.Duration

	violations []Violation
}

// NewGraph returns an empty dependency graph. timeout bounds each Reach
// wait; zero means one second.
func NewGraph(timeout time.Duration) *Graph {
	if timeout <= 0 {
		timeout = time.Second
	}
	g := &Graph{
		deps:    make(map[string][]string),
		done:    make(map[string]bool),
		timeout: timeout,
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Point declares a point and its dependencies. Dependencies need not be
// declared themselves (they become bare points). Declaring a point
// twice merges the dependency lists. Point returns the graph for
// chaining.
func (g *Graph) Point(name string, deps ...string) *Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.deps[name] = append(g.deps[name], deps...)
	for _, d := range deps {
		if _, ok := g.deps[d]; !ok {
			g.deps[d] = nil
		}
	}
	return g
}

// Reach blocks until every dependency of point has been reached, then
// marks point done and returns true. An undeclared point is
// unconstrained. If the wait exceeds the timeout, the violation is
// recorded, the point is marked done anyway, and Reach returns false.
func (g *Graph) Reach(point string) bool {
	start := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	deps, declared := g.deps[point]
	if !declared {
		return true
	}
	ok := await(g.cond, start.Add(g.timeout), func() bool { return len(g.unmet(deps)) == 0 })
	if !ok {
		unmet := g.unmet(deps)
		g.violations = append(g.violations, Violation{
			Point:   point,
			Blocker: unmet[0],
			Pending: unmet,
			Wait:    time.Since(start),
		})
	}
	g.done[point] = true
	g.cond.Broadcast()
	return ok
}

// unmet lists the dependencies not yet reached. Called with g.mu held.
func (g *Graph) unmet(deps []string) []string {
	var out []string
	for _, d := range deps {
		if !g.done[d] {
			out = append(out, d)
		}
	}
	return out
}

// Reached reports whether the point has been reached.
func (g *Graph) Reached(point string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.done[point]
}

// Violations returns the recorded unmet-dependency proceeds, formatted.
func (g *Graph) Violations() []string {
	return formatViolations(g.ViolationDetails())
}

// ViolationDetails returns the structured records of the timed-out
// waits: which point was stuck and which of its dependencies were
// still unmet when it gave up.
func (g *Graph) ViolationDetails() []Violation {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Violation(nil), g.violations...)
}

// Validate checks the declared graph for dependency cycles and returns
// an error naming one if found. Infeasible graphs still degrade safely
// at runtime; Validate lets tests fail fast instead.
func (g *Graph) Validate() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	points := make([]string, 0, len(g.deps))
	for p := range g.deps {
		points = append(points, p)
	}
	sort.Strings(points)
	var err error
	cycles.Find(points, func(p string) []string { return g.deps[p] }, 0, func(c []string) bool {
		err = fmt.Errorf("schedule graph has a cycle through %s", strings.Join(append(c, c[0]), " -> "))
		return false
	})
	return err
}
