// Package sched provides a seeded, deterministic random interleaver for
// "step programs": virtual threads whose work is divided into explicit
// steps. The paper's probabilistic analysis (section 3) models threads as
// sequences of N uniform steps; this package realizes that model so the
// analysis can be validated empirically, and it also serves as a
// deterministic substrate for unit-testing schedule-sensitive code
// without real-time sleeps.
package sched

import (
	"fmt"
	"math/rand"
)

// Thread is a virtual thread: a name and an ordered list of steps. The
// scheduler runs steps one at a time; a step must not block.
type Thread struct {
	// Name identifies the thread in traces.
	Name string
	// Steps is the thread's program.
	Steps []func()

	pos int
}

// NewThread builds a thread from step functions.
func NewThread(name string, steps ...func()) *Thread {
	return &Thread{Name: name, Steps: steps}
}

// AddStep appends a step.
func (t *Thread) AddStep(f func()) { t.Steps = append(t.Steps, f) }

// Done reports whether the thread has executed all its steps.
func (t *Thread) Done() bool { return t.pos >= len(t.Steps) }

// Sched interleaves threads using a seeded RNG: at every scheduling
// point one runnable thread is chosen uniformly at random and executes
// exactly one step. The same seed always produces the same interleaving
// for the same thread structure, so schedule-dependent tests are
// reproducible.
type Sched struct {
	rng   *rand.Rand
	trace []string
}

// New returns a scheduler with the given seed.
func New(seed int64) *Sched {
	return &Sched{rng: rand.New(rand.NewSource(seed))}
}

// Run interleaves the threads to completion and returns the trace: the
// sequence of thread names in execution order. Threads are reset to
// their first step before running.
func (s *Sched) Run(threads ...*Thread) []string {
	for _, t := range threads {
		t.pos = 0
	}
	s.trace = s.trace[:0]
	runnable := make([]*Thread, 0, len(threads))
	for {
		runnable = runnable[:0]
		for _, t := range threads {
			if !t.Done() {
				runnable = append(runnable, t)
			}
		}
		if len(runnable) == 0 {
			return append([]string(nil), s.trace...)
		}
		t := runnable[s.rng.Intn(len(runnable))]
		t.Steps[t.pos]()
		t.pos++
		s.trace = append(s.trace, t.Name)
	}
}

// String renders the last trace compactly.
func (s *Sched) String() string { return fmt.Sprint(s.trace) }

// CountSchedules runs the program under `runs` different seeds starting
// at seed0 and returns how many runs satisfied pred (evaluated after each
// run). It is the workhorse for "what fraction of schedules hit the bug"
// measurements on step programs.
func CountSchedules(seed0 int64, runs int, build func() ([]*Thread, func() bool)) int {
	hits := 0
	for i := 0; i < runs; i++ {
		threads, pred := build()
		New(seed0 + int64(i)).Run(threads...)
		if pred() {
			hits++
		}
	}
	return hits
}
