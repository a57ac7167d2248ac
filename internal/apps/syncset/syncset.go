// Package syncset models a synchronized Set wrapper (Table 1 rows
// "synchronizedSet"). Individual methods are synchronized; cross-method
// sequences race:
//
//   - atomicity1: the classic toArray pattern — size() followed by
//     copyInto(array-of-that-size) — interleaved with a concurrent add
//     overflows the preallocated array and panics (Java's
//     ArrayIndexOutOfBoundsException / ConcurrentModificationException).
//   - deadlock1: two sets cross-calling addAll acquire the two monitors
//     in opposite orders and deadlock.
package syncset

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
)

// Breakpoint names for engine statistics.
const (
	BPAtomicity = "syncset.atomicity1"
	BPDeadlock  = "syncset.deadlock1"
)

// Set is a synchronized set of int64.
type Set struct {
	mu *locks.Mutex
	m  map[int64]struct{}
}

// NewSet returns an empty synchronized set.
func NewSet(name string) *Set {
	return &Set{mu: locks.NewMutex(name), m: make(map[int64]struct{})}
}

// Add inserts v and reports whether it was new (synchronized).
func (s *Set) Add(v int64) bool {
	var added bool
	s.mu.With(func() {
		if _, ok := s.m[v]; !ok {
			s.m[v] = struct{}{}
			added = true
		}
	})
	return added
}

// Remove deletes v and reports whether it was present (synchronized).
func (s *Set) Remove(v int64) bool {
	var had bool
	s.mu.With(func() {
		if _, ok := s.m[v]; ok {
			delete(s.m, v)
			had = true
		}
	})
	return had
}

// Size returns the element count (synchronized).
func (s *Set) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// CopyInto writes the elements into dst (synchronized); like Java's
// toArray(T[]) with a too-small array, it panics when the set has grown
// past len(dst) since the caller sized it.
func (s *Set) CopyInto(dst []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.m) > len(dst) {
		panic(fmt.Sprintf("ArrayIndexOutOfBounds: size=%d capacity=%d", len(s.m), len(dst)))
	}
	i := 0
	for v := range s.m {
		dst[i] = v
		i++
	}
	sort.Slice(dst[:i], func(a, b int) bool { return dst[a] < dst[b] })
}

// AddAll inserts every element of other, holding s's monitor then
// other's — the crossed-acquisition deadlock site.
func (s *Set) AddAll(other *Set, cfg *Config) {
	s.mu.LockAt("SynchronizedSet.addAll:outer")
	defer s.mu.Unlock()
	if cfg != nil && cfg.Breakpoint && cfg.Bug == Deadlock {
		cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock, s.mu, other.mu), cfg.first(s),
			core.Options{Timeout: cfg.Timeout})
	}
	other.mu.LockAt("SynchronizedSet.addAll:inner")
	defer other.mu.Unlock()
	for v := range other.m {
		s.m[v] = struct{}{}
	}
}

// Bug selects the seeded bug.
type Bug int

const (
	// Atomicity is the size/copyInto vs add violation.
	Atomicity Bug = iota
	// Deadlock is the crossed addAll deadlock.
	Deadlock
)

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Bug        Bug
	Breakpoint bool
	Timeout    time.Duration
	StallAfter time.Duration

	firstSet *Set
}

func (c *Config) first(s *Set) bool { return s == c.firstSet }

func (c *Config) stallAfter() time.Duration {
	if c.StallAfter <= 0 {
		return 2 * time.Second
	}
	return c.StallAfter
}

// Run executes the selected scenario once.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	switch cfg.Bug {
	case Deadlock:
		return runDeadlock(cfg)
	default:
		return runAtomicity(cfg)
	}
}

// Workload shape of the atomicity1 run, the same as synclist's: the
// snapshotter spends most of its time on local work between its
// check-then-act sequences, and the writer perturbs the set a few times.
const (
	// readerWork is the snapshotter's local work per snapshot, in
	// appkit.Busy iterations (about 1.6 ms on a 2.1 GHz Xeon).
	readerWork = 1_000_000
	// perturbations is how many times the writer grows the set.
	perturbations = 4
)

// runAtomicity races a snapshotter (size then copyInto) against a writer
// that grows the set by one element a few times and trims it back. The
// window between the snapshotter's two calls is a few microseconds of
// its ~1.6 ms per snapshot, so a natural overflow is rare (measured
// rates in EXPERIMENTS.md). Growing by one element keeps the writer's
// side of the window as short: four synchronized adds would stretch it
// to tens of microseconds. The breakpoint orders a grow into that
// window; the writer trims only after the snapshotter has finished the
// snapshot the grow landed in, so the released snapshotter always copies
// the grown set.
func runAtomicity(cfg Config) appkit.Result {
	s := NewSet("set")
	for i := int64(0); i < 8; i++ {
		s.Add(i)
	}
	opts := core.Options{Timeout: cfg.Timeout, Bound: 1}
	res := appkit.RunWithDeadline(30*time.Second, func() appkit.Result {
		errCh := make(chan any, 2)
		spawn := func(f func()) {
			go func() {
				defer func() { errCh <- recover() }()
				f()
			}()
		}
		// Resolve the handle once; the trigger sites below run per
		// iteration and skip the registry lookup.
		var bpAtom *core.Breakpoint
		if cfg.Breakpoint {
			bpAtom = cfg.Engine.Breakpoint(BPAtomicity)
		}
		var reader appkit.Progress
		var writerDone atomic.Bool
		// Snapshotter.
		spawn(func() {
			defer reader.Done()
			for !writerDone.Load() {
				n := s.Size()
				if cfg.Breakpoint {
					bpAtom.Trigger(core.NewAtomicityTrigger(BPAtomicity, s), false, opts)
				}
				s.CopyInto(make([]int64, n))
				reader.Step()
				appkit.Busy(readerWork)
			}
		})
		// Grower: adds an element, does unrelated work, then trims it.
		spawn(func() {
			defer writerDone.Store(true)
			next := int64(1000)
			for j := 0; j < perturbations && !reader.Finished(); j++ {
				var inFlight int64
				grow := func() {
					inFlight = reader.Steps()
					s.Add(next)
				}
				if cfg.Breakpoint {
					bpAtom.TriggerAnd(core.NewAtomicityTrigger(BPAtomicity, s), true, opts, grow)
				} else {
					grow()
				}
				time.Sleep(time.Millisecond) // unrelated work
				reader.AwaitPast(inFlight)
				s.Remove(next)
				next++
				time.Sleep(time.Millisecond) // unrelated work
			}
		})
		for i := 0; i < 2; i++ {
			if p := <-errCh; p != nil {
				return appkit.Result{Status: appkit.Exception, Detail: fmt.Sprint(p)}
			}
		}
		return appkit.Result{Status: appkit.OK}
	})
	res.BPHit = cfg.Engine.Stats(BPAtomicity).Hits() > 0
	return res
}

func runDeadlock(cfg Config) appkit.Result {
	s1 := NewSet("s1")
	s2 := NewSet("s2")
	s1.Add(1)
	s2.Add(2)
	cfg.firstSet = s1
	res := appkit.RunWithDeadline(cfg.stallAfter(), func() appkit.Result {
		done := make(chan struct{}, 2)
		go func() { s1.AddAll(s2, &cfg); done <- struct{}{} }()
		go func() { s2.AddAll(s1, &cfg); done <- struct{}{} }()
		<-done
		<-done
		return appkit.Result{Status: appkit.OK}
	})
	res.BPHit = cfg.Engine.Stats(BPDeadlock).Hits() > 0
	return res
}
