// Package montecarlo models the Java Grande Forum "montecarlo"
// benchmark: Monte Carlo pricing of an asset by simulating geometric
// Brownian motion paths across a worker pool. The results vector is
// correctly locked; the seeded bug (Table 1 row "montecarlo / race1",
// bound=10) is the tasks-completed counter, updated read-modify-write
// without synchronization — exactly the kind of bookkeeping race the
// original harness exhibited. A lost update makes the final count
// disagree with the number of tasks.
package montecarlo

import (
	"fmt"
	"math"
	"sync"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
	"cbreak/internal/memory"
)

// BPRace1 identifies the tasks-done counter race in engine statistics.
const BPRace1 = "montecarlo.race1"

// PathResult is the outcome of simulating one price path.
type PathResult struct {
	Task  int
	Final float64
}

// rng is a small deterministic PRNG (xorshift*) with a Box-Muller
// gaussian, so tasks are reproducible across runs.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 1
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 2685821657736338717
}

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *rng) gaussian() float64 {
	u1 := r.float()
	for u1 == 0 {
		u1 = r.float()
	}
	u2 := r.float()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// SimulatePath runs one geometric-Brownian-motion path of the given
// number of steps and returns the final price (S0=100, mu=0.05,
// sigma=0.2, dt=1/steps).
func SimulatePath(task, steps int) PathResult {
	r := newRNG(uint64(task)*2654435761 + 1)
	s := 100.0
	dt := 1.0 / float64(steps)
	const mu, sigma = 0.05, 0.2
	for i := 0; i < steps; i++ {
		s *= math.Exp((mu-0.5*sigma*sigma)*dt + sigma*math.Sqrt(dt)*r.gaussian())
	}
	return PathResult{Task: task, Final: s}
}

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Breakpoint bool
	Timeout    time.Duration
	// Bound limits breakpoint hits (paper: 10).
	Bound int
	// Tasks is the number of paths (default 200).
	Tasks int
	// Steps per path (default 100).
	Steps int
}

// numWorkers is the pool size.
const numWorkers = 2

func (c *Config) tasks() int {
	if c.Tasks <= 0 {
		return 200
	}
	return c.Tasks
}

func (c *Config) steps() int {
	if c.Steps <= 0 {
		return 100
	}
	return c.Steps
}

func (c *Config) bound() int {
	if c.Bound > 0 {
		return c.Bound
	}
	return 10
}

// Run prices the asset across the worker pool and validates the
// bookkeeping: a tasks-done counter that disagrees with the number of
// results is the manifested race.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	res := appkit.RunWithDeadline(120*time.Second, func() appkit.Result {
		nTasks := cfg.tasks()
		tasksCh := make(chan int, nTasks)
		for i := 0; i < nTasks; i++ {
			tasksCh <- i
		}
		close(tasksCh)

		resMu := locks.NewMutex("montecarlo.results")
		var results []PathResult
		done := memory.NewCell(memory.NewSpace(), "montecarlo.tasksDone", 0)

		var wg sync.WaitGroup
		for w := 0; w < numWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Resolve the handle once per worker; the trigger site
				// below runs per task and skips the registry lookup.
				var bpRace *core.Breakpoint
				if cfg.Breakpoint {
					bpRace = cfg.Engine.Breakpoint(BPRace1)
				}
				for task := range tasksCh {
					pr := SimulatePath(task, cfg.steps())
					resMu.With(func() { results = append(results, pr) })
					// Racy read-modify-write bookkeeping (race1).
					v := done.Load("montecarlo.go:done.read")
					if cfg.Breakpoint {
						bpRace.Trigger(core.NewConflictTrigger(BPRace1, done), w == 0,
							core.Options{Timeout: cfg.Timeout, Bound: cfg.bound()})
					}
					done.Store("montecarlo.go:done.write", v+1)
				}
			}(w)
		}
		wg.Wait()

		if len(results) != nTasks {
			return appkit.Result{Status: appkit.TestFail,
				Detail: fmt.Sprintf("results vector short: %d/%d", len(results), nTasks)}
		}
		if got := done.Load("check"); got != int64(nTasks) {
			return appkit.Result{Status: appkit.TestFail,
				Detail: fmt.Sprintf("tasksDone counter lost updates: %d/%d", got, nTasks)}
		}
		// Sanity: mean final price should be near S0*exp(mu) ~ 105.
		var sum float64
		for _, r := range results {
			sum += r.Final
		}
		mean := sum / float64(len(results))
		if mean < 80 || mean > 140 {
			return appkit.Result{Status: appkit.TestFail,
				Detail: fmt.Sprintf("price mean implausible: %.2f", mean)}
		}
		return appkit.Result{Status: appkit.OK}
	})
	res.BPHit = cfg.Engine.Stats(BPRace1).Hits() > 0
	return res
}
