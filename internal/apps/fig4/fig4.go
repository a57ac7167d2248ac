// Package fig4 implements the paper's Figure 4 program: a two-threaded
// example engineered so that its concurrent breakpoint
// (8, 10, t1.o1 == t2.o2) is almost never reached by plain execution.
//
// threadl runs foo(o): a long synchronized block (statements 1-7)
// followed by the check `if (o1.x == 0) ERROR` at line 8. thread2 runs
// bar(o): the write `o2.x = 1` at line 10 followed by a short
// synchronized block. The ERROR fires only if line 8's read executes
// before line 10's write — but line 8 runs late in thread1 and line 10
// runs first in thread2, so the window is tiny. BTrigger postpones
// thread2 at line 10 until thread1 reaches line 8, making ERROR certain.
//
// The package also exposes a step-program version of the same structure
// for the internal/sched interleaving explorer, which measures the
// no-trigger hit probability empirically for the section 3 model
// (experiment E6).
package fig4

import (
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
	"cbreak/internal/memory"
	"cbreak/internal/sched"
)

// BPName identifies the Figure 4 breakpoint in engine statistics.
const BPName = "fig4.bp"

// XObject is the shared object of Figure 4.
type XObject struct {
	X  *memory.Cell
	mu *locks.Mutex
}

// NewXObject returns an object with x = 0.
func NewXObject() *XObject {
	return &XObject{
		X:  memory.NewCell(nil, "o.x", 0),
		mu: locks.NewMutex("fig4.o"),
	}
}

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Breakpoint bool
	Timeout    time.Duration
	// Work is the length of foo's synchronized block, in busy-work
	// iterations (the f1()..f5() calls; default 50000).
	Work int

	// bp is the breakpoint handle, resolved once per run so the trigger
	// sites skip the per-call registry lookup.
	bp *core.Breakpoint
}

func (c *Config) work() int {
	if c.Work <= 0 {
		return 50000
	}
	return c.Work
}

// foo is thread1 of Figure 4: lines 1-9.
func foo(o *XObject, cfg *Config, sink *int64) bool {
	o.mu.With(func() { // line 1
		*sink += appkit.Busy(cfg.work()) // lines 2-6: f1()..f5()
	}) // line 7
	if cfg.Breakpoint {
		// Line 8 side: the check must execute before line 10's write.
		cfg.bp.Trigger(core.NewConflictTrigger(BPName, o), true,
			core.Options{Timeout: cfg.Timeout})
	}
	if o.X.Load("fig4:8") == 0 { // line 8
		return true // line 9: ERROR
	}
	return false
}

// bar is thread2 of Figure 4: lines 10-13.
func bar(o *XObject, cfg *Config, sink *int64) {
	if cfg.Breakpoint {
		// Line 10 side: postponed until thread1 reaches line 8.
		cfg.bp.Trigger(core.NewConflictTrigger(BPName, o), false,
			core.Options{Timeout: cfg.Timeout})
	}
	o.X.Store("fig4:10", 1) // line 10
	o.mu.With(func() {      // line 11
		*sink += appkit.Busy(cfg.work() / 100) // line 12: f6()
	}) // line 13
}

// Run executes Figure 4 once; an Exception status means ERROR was
// reached (the breakpoint's purpose).
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	cfg.bp = cfg.Engine.Breakpoint(BPName)
	o := NewXObject()
	var sink1, sink2 int64
	res := appkit.RunWithDeadline(60*time.Second, func() appkit.Result {
		errCh := make(chan bool, 1)
		done := make(chan struct{}, 1)
		go func() { errCh <- foo(o, &cfg, &sink1) }()
		go func() { bar(o, &cfg, &sink2); done <- struct{}{} }()
		hitError := <-errCh
		<-done
		if hitError {
			return appkit.Result{Status: appkit.Exception, Detail: "line 9: ERROR reached"}
		}
		return appkit.Result{Status: appkit.OK}
	})
	res.BPHit = cfg.Engine.Stats(BPName).Hits() > 0
	return res
}

// StepProbability measures, over `runs` seeded random interleavings of
// the step-program version of Figure 4 (thread1: n steps then the read;
// thread2: the write then a short tail), the fraction in which the read
// executes before the write — the no-trigger hit probability of the
// section 3 model with m = 1.
func StepProbability(n, tail, runs int, seed0 int64) float64 {
	hits := sched.CountSchedules(seed0, runs, func() ([]*sched.Thread, func() bool) {
		x := 0
		sawZero := false
		t1 := sched.NewThread("foo")
		for i := 0; i < n; i++ {
			t1.AddStep(func() {}) // the synchronized block body
		}
		t1.AddStep(func() { sawZero = x == 0 }) // line 8
		t2 := sched.NewThread("bar")
		t2.AddStep(func() { x = 1 }) // line 10
		for i := 0; i < tail; i++ {
			t2.AddStep(func() {}) // lines 11-13
		}
		return []*sched.Thread{t1, t2}, func() bool { return sawZero }
	})
	return float64(hits) / float64(runs)
}
