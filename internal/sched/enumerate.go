package sched

// This file adds systematic schedule exploration — the CHESS-style
// baseline of the paper's related work (section 7): instead of sampling
// interleavings, enumerate them. For step programs this is exact, which
// makes it the ground truth the probabilistic machinery is validated
// against:
//
//   - enumerate visits every interleaving (bounded) and counts how many
//     satisfy a predicate.
//   - randomMeasure computes the exact probability that the *uniform
//     random scheduler* (sched.Sched) produces a satisfying trace —
//     which weights interleavings non-uniformly, since each step picks
//     among the currently runnable threads.

// enumerate runs build() once per interleaving of the returned threads,
// visiting every schedule (or up to limit schedules if limit > 0). It
// returns the number of schedules visited and how many satisfied pred.
//
// The thread step functions must be deterministic for enumeration to be
// meaningful. The number of interleavings is multinomial in the step
// counts; keep programs small (e.g. two threads with <= 12 steps each).
//
//cbvet:ignore unused reference oracle: the exhaustive count of interleavings that its tests check against closed forms
func enumerate(limit int, build func() ([]*Thread, func() bool)) (visited, satisfied int) {
	// First, discover the step counts with a probe instance.
	probe, _ := build()
	counts := make([]int, len(probe))
	for i, t := range probe {
		counts[i] = len(t.Steps)
	}

	// Generate thread-choice sequences recursively; re-run the program
	// from scratch for each complete schedule (steps may have shared
	// state, so replay must rebuild).
	var schedule []int
	var rec func(remaining []int)
	done := false
	rec = func(remaining []int) {
		if done {
			return
		}
		complete := true
		for ti, r := range remaining {
			if r == 0 {
				continue
			}
			complete = false
			schedule = append(schedule, ti)
			remaining[ti]--
			rec(remaining)
			remaining[ti]++
			schedule = schedule[:len(schedule)-1]
		}
		if complete {
			threads, pred := build()
			for _, ti := range schedule {
				t := threads[ti]
				t.Steps[t.pos]()
				t.pos++
			}
			visited++
			if pred() {
				satisfied++
			}
			if limit > 0 && visited >= limit {
				done = true
			}
		}
	}
	rec(counts)
	return visited, satisfied
}

// randomMeasure computes the exact probability that the uniform random
// scheduler produces a trace satisfying pred, by weighted exploration:
// at each decision point every runnable thread is taken with probability
// 1/runnable. Exponential in program size; keep programs small.
//
//cbvet:ignore unused reference oracle: the tests check the uniform scheduler's sampled hit rate against this exact probability
func randomMeasure(build func() ([]*Thread, func() bool)) float64 {
	probe, _ := build()
	counts := make([]int, len(probe))
	for i, t := range probe {
		counts[i] = len(t.Steps)
	}

	var schedule []int
	var prob float64
	var rec func(remaining []int, weight float64)
	rec = func(remaining []int, weight float64) {
		runnable := 0
		for _, r := range remaining {
			if r > 0 {
				runnable++
			}
		}
		if runnable == 0 {
			threads, pred := build()
			for _, ti := range schedule {
				t := threads[ti]
				t.Steps[t.pos]()
				t.pos++
			}
			if pred() {
				prob += weight
			}
			return
		}
		w := weight / float64(runnable)
		for ti, r := range remaining {
			if r == 0 {
				continue
			}
			schedule = append(schedule, ti)
			remaining[ti]--
			rec(remaining, w)
			remaining[ti]++
			schedule = schedule[:len(schedule)-1]
		}
	}
	rec(counts, 1)
	return prob
}
