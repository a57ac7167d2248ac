package sched

import "math/rand"

// This file implements PCT (Burckhardt et al., ASPLOS 2010 — reference
// [5] of the paper) as a baseline scheduler for step programs: a
// priority-based randomized scheduler with a probabilistic guarantee of
// finding bugs of a given depth.
//
// The paper positions concurrent breakpoints against such testing tools:
// PCT *finds* a depth-d bug with probability >= 1/(n*k^(d-1)) per run,
// while a breakpoint *reproduces* a known bug with probability close to
// one. The BenchmarkBaseline_PCT benchmark quantifies that contrast on
// the Figure 4 program.

// PCT runs the threads under a PCT scheduler with bug depth d: each
// thread gets a random distinct priority, the scheduler always runs the
// runnable thread with the highest priority, and d-1 random change
// points lower the running thread's priority as the execution crosses
// them. It returns the trace of thread names.
func PCT(seed int64, d int, threads ...*Thread) []string {
	if d < 1 {
		d = 1
	}
	rng := rand.New(rand.NewSource(seed))
	for _, t := range threads {
		t.pos = 0
	}
	n := len(threads)
	totalSteps := 0
	for _, t := range threads {
		totalSteps += len(t.Steps)
	}

	// Initial priorities: a random permutation of d, d+1, ..., d+n-1
	// (all above the change-point priorities 1..d-1).
	prio := make(map[*Thread]int, n)
	perm := rng.Perm(n)
	for i, t := range threads {
		prio[t] = d + perm[i]
	}
	// d-1 change points drawn uniformly from the step indices.
	changeAt := make(map[int]int) // step index -> new priority
	for i := 1; i < d; i++ {
		if totalSteps > 0 {
			changeAt[rng.Intn(totalSteps)] = d - i
		}
	}

	var trace []string
	for step := 0; ; step++ {
		var best *Thread
		for _, t := range threads {
			if t.Done() {
				continue
			}
			if best == nil || prio[t] > prio[best] {
				best = t
			}
		}
		if best == nil {
			return trace
		}
		if p, ok := changeAt[step]; ok {
			prio[best] = p
			// Re-pick after the priority change, as PCT does.
			continue
		}
		best.Steps[best.pos]()
		best.pos++
		trace = append(trace, best.Name)
	}
}

// PCTGuarantee returns PCT's theoretical lower bound on the per-run
// probability of exposing a bug of depth d in a program with n threads
// and k total steps: 1/(n * k^(d-1)).
func PCTGuarantee(n, k, d int) float64 {
	if n <= 0 || k <= 0 || d < 1 {
		return 0
	}
	p := 1.0 / float64(n)
	for i := 1; i < d; i++ {
		p /= float64(k)
	}
	return p
}

// CountPCT runs the program under `runs` PCT seeds and returns how many
// satisfied pred — the empirical bug-finding rate to compare against
// PCTGuarantee and against the uniform random scheduler.
func CountPCT(seed0 int64, runs, depth int, build func() ([]*Thread, func() bool)) int {
	hits := 0
	for i := 0; i < runs; i++ {
		threads, pred := build()
		PCT(seed0+int64(i), depth, threads...)
		if pred() {
			hits++
		}
	}
	return hits
}
