// Package synclist models java.util.Collections$SynchronizedList backed
// by an ArrayList (Table 1 rows "synchronizedList"). Each method is
// individually synchronized on the wrapper's monitor, so check-then-act
// sequences across methods race:
//
//   - atomicity1: size() followed by get(size-1) interleaved with a
//     concurrent clear() throws IndexOutOfBoundsException.
//   - deadlock1: two lists cross-calling addAll acquire the two monitors
//     in opposite orders and deadlock.
//
// Both bugs carry concurrent breakpoints that make them deterministic.
// Without them the atomicity violation is rare: its window is a few
// microseconds of the reader's time (see runAtomicity).
package synclist

import (
	"fmt"
	"sync/atomic"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
)

// Breakpoint names for engine statistics.
const (
	BPAtomicity = "synclist.atomicity1"
	BPDeadlock  = "synclist.deadlock1"
)

// List is a synchronized list of int64 backed by a slice.
type List struct {
	mu    *locks.Mutex
	items []int64
}

// NewList returns an empty synchronized list.
func NewList(name string) *List { return &List{mu: locks.NewMutex(name)} }

// Add appends v (synchronized).
func (l *List) Add(v int64) {
	l.mu.With(func() { l.items = append(l.items, v) })
}

// Size returns the element count (synchronized).
func (l *List) Size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// Get returns element i (synchronized); panics like Java's
// IndexOutOfBoundsException when i is stale.
func (l *List) Get(i int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.items) {
		panic(fmt.Sprintf("IndexOutOfBounds: index=%d size=%d", i, len(l.items)))
	}
	return l.items[i]
}

// Clear removes all elements (synchronized).
func (l *List) Clear() {
	l.mu.With(func() { l.items = l.items[:0] })
}

// AddAll appends every element of other, holding l's monitor and then
// other's — the nested acquisition that deadlocks when two lists
// cross-call AddAll. cfg inserts the deadlock breakpoint between the two
// acquisitions.
func (l *List) AddAll(other *List, cfg *Config) {
	l.mu.LockAt("SynchronizedList.addAll:outer")
	defer l.mu.Unlock()
	if cfg != nil && cfg.Breakpoint && cfg.Bug == Deadlock {
		cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock, l.mu, other.mu), cfg.first(l),
			core.Options{Timeout: cfg.Timeout})
	}
	other.mu.LockAt("SynchronizedList.addAll:inner")
	defer other.mu.Unlock()
	l.items = append(l.items, other.items...)
}

// Bug selects which seeded bug a run exercises.
type Bug int

const (
	// Atomicity is the size/get vs clear violation.
	Atomicity Bug = iota
	// Deadlock is the crossed addAll deadlock.
	Deadlock
)

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Bug        Bug
	Breakpoint bool
	// Timeout is the breakpoint pause (zero = engine default).
	Timeout time.Duration
	// StallAfter bounds deadlock detection (default 2s).
	StallAfter time.Duration

	// firstList marks which list's AddAll is the breakpoint's
	// first-action side (set by Run).
	firstList *List
}

func (c *Config) first(l *List) bool { return l == c.firstList }

func (c *Config) stallAfter() time.Duration {
	if c.StallAfter <= 0 {
		return 2 * time.Second
	}
	return c.StallAfter
}

// Run executes the selected two-thread scenario once.
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

// Workload shape of the atomicity1 run (syncmap and syncset use the
// same): the reader spends most of its time on local work between its
// check-then-act sequences, and the writer perturbs the list a few
// times.
const (
	// readerWork is the reader's local work per check, in appkit.Busy
	// iterations (about 1.6 ms on a 2.1 GHz Xeon).
	readerWork = 1_000_000
	// perturbations is how many times the writer clears the list.
	perturbations = 4
)

// runAtomicity races a reader doing the non-atomic size()/get(size-1)
// sequence against a writer that clears and refills the list a few
// times. The window between the reader's two calls holds one goroutine-id
// parse of the instrumented lock, a few microseconds against the
// reader's ~1.6 ms of local work per check, so a clear seldom lands in it
// and the IndexOutOfBoundsException is a genuine Heisenbug (measured
// rates in EXPERIMENTS.md). The breakpoint orders a clear into exactly
// that window. The writer refills only after the reader has finished the
// check the clear landed in, so a released reader always acts on the
// cleared list, however late the scheduler runs it. The reader checks
// until the writer is done, so every clear overlaps the reader whatever
// the machine's speed.
func runAtomicity(cfg Config) appkit.Result {
	l := NewList("list")
	for i := int64(0); i < 16; i++ {
		l.Add(i)
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
		// Reader: takes the last element, check-then-act, then works
		// on it.
		spawn(func() {
			defer reader.Done()
			for !writerDone.Load() {
				if n := l.Size(); n > 0 {
					if cfg.Breakpoint {
						bpAtom.Trigger(core.NewAtomicityTrigger(BPAtomicity, l), false, opts)
					}
					_ = l.Get(n - 1)
				}
				reader.Step()
				appkit.Busy(readerWork)
			}
		})
		// Writer: clears, does unrelated work, and refills. The gap
		// between clear and refill is where the reader's stale index
		// dereference lands.
		spawn(func() {
			defer writerDone.Store(true)
			for j := 0; j < perturbations && !reader.Finished(); j++ {
				var inFlight int64
				clear := func() {
					inFlight = reader.Steps()
					l.Clear()
				}
				if cfg.Breakpoint {
					bpAtom.TriggerAnd(core.NewAtomicityTrigger(BPAtomicity, l), true, opts, clear)
				} else {
					clear()
				}
				time.Sleep(time.Millisecond) // unrelated work
				reader.AwaitPast(inFlight)
				for i := int64(0); i < 16; i++ {
					l.Add(i)
				}
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
	l1 := NewList("l1")
	l2 := NewList("l2")
	for i := int64(0); i < 4; i++ {
		l1.Add(i)
		l2.Add(i + 100)
	}
	cfg.firstList = l1
	res := appkit.RunWithDeadline(cfg.stallAfter(), func() appkit.Result {
		done := make(chan struct{}, 2)
		go func() { l1.AddAll(l2, &cfg); done <- struct{}{} }()
		go func() { l2.AddAll(l1, &cfg); done <- struct{}{} }()
		<-done
		<-done
		return appkit.Result{Status: appkit.OK}
	})
	res.BPHit = cfg.Engine.Stats(BPDeadlock).Hits() > 0
	return res
}
