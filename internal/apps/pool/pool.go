// Package pool models the Apache commons-pool object pool with the
// missed-notification stall of the paper's evaluation (Table 1 row
// "pool / missed-notify1", found with Methodology II). The borrow path
// tests the exhausted condition, releases the monitor, and later waits
// on the stale flag; the return path notifies outside the monitor. If
// the return's notification fires in the window between the borrower's
// test and its wait, the wakeup is lost and the borrower blocks forever.
package pool

import (
	"fmt"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
)

// BPMissedNotify identifies the breakpoint in engine statistics.
const BPMissedNotify = "pool.missed-notify1"

// Object is a pooled resource.
type Object struct {
	ID int
}

// Pool is a bounded object pool. The monitor protocol contains the
// seeded stale-condition bug described in the package comment.
type Pool struct {
	mu     *locks.Mutex
	cond   *locks.Cond
	free   []*Object
	active int
	max    int
	cfg    *Config
}

// NewPool returns a pool of max objects.
func NewPool(max int, cfg *Config) *Pool {
	mu := locks.NewMutex("pool.monitor")
	p := &Pool{mu: mu, cond: locks.NewCond("pool.available", mu), max: max, cfg: cfg}
	for i := 0; i < max; i++ {
		p.free = append(p.free, &Object{ID: i})
	}
	return p
}

// Borrow takes an object, blocking while the pool is exhausted. The
// exhausted test and the wait are separated by an unprotected window
// (the bug); the second-action side of the breakpoint sits in that
// window.
func (p *Pool) Borrow() *Object {
	// Resolve the handle once; the trigger site below runs per loop
	// iteration and skips the registry lookup.
	var bpNotify *core.Breakpoint
	if p.cfg != nil && p.cfg.Breakpoint {
		bpNotify = p.cfg.Engine.Breakpoint(BPMissedNotify)
	}
	for {
		var exhausted bool
		var obj *Object
		p.mu.LockAt("Pool.java:borrow.test")
		if p.active < p.max && len(p.free) > 0 {
			obj = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			p.active++
		} else {
			exhausted = true
		}
		p.mu.Unlock()
		if obj != nil {
			return obj
		}
		if exhausted {
			// The window: a return's notification arriving right here
			// is lost, and the wait below uses the stale flag.
			if bpNotify != nil {
				bpNotify.Trigger(core.NewNotifyTrigger(BPMissedNotify, p.cond), false,
					core.Options{Timeout: p.cfg.Timeout, Bound: 1})
			}
			p.mu.LockAt("Pool.java:borrow.wait")
			p.cond.Wait() // no re-test: waits on the stale condition
			p.mu.Unlock()
		}
	}
}

// Return puts an object back and notifies a waiting borrower — but the
// notification is sent outside the monitor (the first-action side of
// the breakpoint), so it can fire before a borrower's wait registers.
func (p *Pool) Return(obj *Object) {
	p.mu.LockAt("Pool.java:return")
	p.free = append(p.free, obj)
	p.active--
	p.mu.Unlock()
	notify := p.cond.Notify
	if p.cfg != nil && p.cfg.Breakpoint {
		p.cfg.Engine.TriggerHereAnd(core.NewNotifyTrigger(BPMissedNotify, p.cond), true,
			core.Options{Timeout: p.cfg.Timeout, Bound: 1}, notify)
	} else {
		notify()
	}
}

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Breakpoint bool
	Timeout    time.Duration
	// StallAfter bounds stall detection (default 2s).
	StallAfter time.Duration
}

func (c *Config) stallAfter() time.Duration {
	if c.StallAfter <= 0 {
		return 2 * time.Second
	}
	return c.StallAfter
}

// Run exercises the missed-notification scenario: the pool is
// exhausted, a third borrower arrives, and a holder returns its object
// concurrently. A lost wakeup stalls the borrower.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	pool := NewPool(2, &cfg)
	res := appkit.RunWithDeadline(cfg.stallAfter(), func() appkit.Result {
		a := pool.Borrow()
		b := pool.Borrow()
		_ = b

		borrowed := make(chan *Object, 1)
		go func() { borrowed <- pool.Borrow() }()
		go func() {
			// Give the borrower time to reach the exhausted test.
			time.Sleep(time.Millisecond)
			pool.Return(a)
		}()
		obj := <-borrowed
		if obj == nil {
			return appkit.Result{Status: appkit.TestFail, Detail: "nil object borrowed"}
		}
		return appkit.Result{Status: appkit.OK}
	})
	if res.Status == appkit.Stall {
		res.Detail = fmt.Sprintf("borrower stalled waiting on %q", "pool.available")
	}
	res.BPHit = cfg.Engine.Stats(BPMissedNotify).Hits() > 0
	return res
}
