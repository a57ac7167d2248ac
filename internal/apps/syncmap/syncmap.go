// Package syncmap models java.util.Collections$SynchronizedMap backed by
// a LinkedHashMap (Table 1 rows "synchronizedMap"). Individual methods
// are synchronized; cross-method sequences race:
//
//   - atomicity1: containsKey(k) followed by get(k) interleaved with a
//     concurrent remove(k) returns a stale missing value — a silent
//     wrong answer (the paper's table shows no visible error for this
//     row; we classify it as a test failure).
//   - deadlock1: two maps cross-calling putAll acquire the two monitors
//     in opposite orders and deadlock.
package syncmap

import (
	"sync/atomic"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
)

// Breakpoint names for engine statistics.
const (
	BPAtomicity = "syncmap.atomicity1"
	BPDeadlock  = "syncmap.deadlock1"
)

// Map is a synchronized insertion-ordered map from string to int64
// (LinkedHashMap analog: iteration follows insertion order).
type Map struct {
	mu    *locks.Mutex
	m     map[string]int64
	order []string
}

// NewMap returns an empty synchronized map.
func NewMap(name string) *Map {
	return &Map{mu: locks.NewMutex(name), m: make(map[string]int64)}
}

// Put inserts or updates k (synchronized).
func (s *Map) Put(k string, v int64) {
	s.mu.With(func() { s.putLocked(k, v) })
}

func (s *Map) putLocked(k string, v int64) {
	if _, ok := s.m[k]; !ok {
		s.order = append(s.order, k)
	}
	s.m[k] = v
}

// Get returns the value for k and whether it was present (synchronized).
func (s *Map) Get(k string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[k]
	return v, ok
}

// ContainsKey reports presence of k (synchronized).
func (s *Map) ContainsKey(k string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[k]
	return ok
}

// Remove deletes k (synchronized).
func (s *Map) Remove(k string) {
	s.mu.With(func() {
		if _, ok := s.m[k]; ok {
			delete(s.m, k)
			for i, o := range s.order {
				if o == k {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
		}
	})
}

// PutAll copies every entry of other into s, holding s's monitor then
// other's — the nested acquisition that deadlocks when two maps
// cross-call PutAll.
func (s *Map) PutAll(other *Map, cfg *Config) {
	s.mu.LockAt("SynchronizedMap.putAll:outer")
	defer s.mu.Unlock()
	if cfg != nil && cfg.Breakpoint && cfg.Bug == Deadlock {
		cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock, s.mu, other.mu), cfg.first(s),
			core.Options{Timeout: cfg.Timeout})
	}
	other.mu.LockAt("SynchronizedMap.putAll:inner")
	defer other.mu.Unlock()
	for _, k := range other.order {
		s.putLocked(k, other.m[k])
	}
}

// Bug selects the seeded bug.
type Bug int

const (
	// Atomicity is the containsKey/get vs remove violation.
	Atomicity Bug = iota
	// Deadlock is the crossed putAll deadlock.
	Deadlock
)

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Bug        Bug
	Breakpoint bool
	Timeout    time.Duration
	StallAfter time.Duration

	firstMap *Map
}

func (c *Config) first(m *Map) bool { return m == c.firstMap }

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
// reader spends most of its time on local work between its
// check-then-act sequences, and the writer perturbs the map a few times.
const (
	// readerWork is the reader's local work per check, in appkit.Busy
	// iterations (about 1.6 ms on a 2.1 GHz Xeon).
	readerWork = 1_000_000
	// perturbations is how many times the writer removes the key.
	perturbations = 4
)

// runAtomicity races a reader doing containsKey(k) then get(k) against a
// writer that removes and re-puts k a few times. A stale read (key
// present at the check, absent at the get) is the silent wrong answer.
// The window between the reader's two calls is a few microseconds of its
// ~1.6 ms per check, so a natural stale read is rare (measured rates in
// EXPERIMENTS.md). The breakpoint orders a remove into that window; the
// writer re-puts the key only after the reader has finished the check
// the remove landed in, so the released reader always reads the removed
// key.
func runAtomicity(cfg Config) appkit.Result {
	m := NewMap("map")
	const key = "session-42"
	m.Put(key, 1)
	opts := core.Options{Timeout: cfg.Timeout, Bound: 1}
	res := appkit.RunWithDeadline(30*time.Second, func() appkit.Result {
		stale := make(chan bool, 1)
		done := make(chan struct{}, 1)
		// Resolve the handle once; the trigger sites below run per
		// iteration and skip the registry lookup.
		var bpAtom *core.Breakpoint
		if cfg.Breakpoint {
			bpAtom = cfg.Engine.Breakpoint(BPAtomicity)
		}
		var reader appkit.Progress
		var writerDone atomic.Bool
		go func() {
			defer func() { done <- struct{}{} }()
			defer reader.Done()
			for !writerDone.Load() {
				if m.ContainsKey(key) {
					if cfg.Breakpoint {
						bpAtom.Trigger(core.NewAtomicityTrigger(BPAtomicity, m), false, opts)
					}
					if _, ok := m.Get(key); !ok {
						stale <- true
						return
					}
				}
				reader.Step()
				appkit.Busy(readerWork)
			}
		}()
		go func() {
			defer writerDone.Store(true)
			for j := 0; j < perturbations && !reader.Finished(); j++ {
				var inFlight int64
				remove := func() {
					inFlight = reader.Steps()
					m.Remove(key)
				}
				if cfg.Breakpoint {
					bpAtom.TriggerAnd(core.NewAtomicityTrigger(BPAtomicity, m), true, opts, remove)
				} else {
					remove()
				}
				time.Sleep(time.Millisecond) // unrelated work
				reader.AwaitPast(inFlight)
				m.Put(key, int64(j))
				time.Sleep(time.Millisecond) // unrelated work
			}
		}()
		<-done
		select {
		case <-stale:
			return appkit.Result{Status: appkit.TestFail, Detail: "containsKey/get saw stale state"}
		default:
			return appkit.Result{Status: appkit.OK}
		}
	})
	res.BPHit = cfg.Engine.Stats(BPAtomicity).Hits() > 0
	return res
}

func runDeadlock(cfg Config) appkit.Result {
	m1 := NewMap("m1")
	m2 := NewMap("m2")
	m1.Put("a", 1)
	m2.Put("b", 2)
	cfg.firstMap = m1
	res := appkit.RunWithDeadline(cfg.stallAfter(), func() appkit.Result {
		done := make(chan struct{}, 2)
		go func() { m1.PutAll(m2, &cfg); done <- struct{}{} }()
		go func() { m2.PutAll(m1, &cfg); done <- struct{}{} }()
		<-done
		<-done
		return appkit.Result{Status: appkit.OK}
	})
	res.BPHit = cfg.Engine.Stats(BPDeadlock).Hits() > 0
	return res
}
