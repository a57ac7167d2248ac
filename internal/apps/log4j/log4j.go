// Package log4j models the log4j 1.2.13 AsyncAppender missed-
// notification stall that the paper's section 5 walks through with
// Methodology II, including the four lock-contention sites the conflict
// detector reports:
//
//	line 100: append()        — producers enqueue under the monitor
//	line 236: setBufferSize() — resize request + notification
//	line 277: close()         — shutdown + notification
//	line 309: Dispatcher.run  — drain / sleep decision
//
// The seeded bug is a classic lost wakeup: the dispatcher decides to
// sleep and then waits, while setBufferSize (and close) deliver their
// notification outside the monitor without setting the dispatcher's
// signal flag. A notification that fires in the dispatcher's
// decide-to-sleep window is lost; because control requests are only
// processed on a *notified* wakeup (the missing-recheck bug), a lost
// resize notification leaves setBufferSize blocked forever on its
// acknowledgement — the system stall. append() is robust (it sets the
// signal flag under the monitor), so contention pairs involving line 100
// never stall, and only the 236-before-309 resolution stalls
// deterministically — the shape of the paper's section 5 table.
//
// A separate lock-order deadlock (Table 1 row "log4j / deadlock1")
// crosses the AsyncAppender monitor with the downstream FileAppender
// lock on the dispatch and closeTarget paths.
package log4j

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
)

// Breakpoint names for engine statistics.
const (
	BPPair     = "log4j.pair"      // the section-5 contention pair breakpoint
	BPDeadlock = "log4j.deadlock1" // dispatch vs closeTarget lock inversion
)

// Site identifies one of the four contention sites of section 5.
type Site int

// The contention sites, named by the paper's line numbers.
const (
	S100 Site = 100 // append
	S236 Site = 236 // setBufferSize
	S277 Site = 277 // close
	S309 Site = 309 // dispatcher run
)

// String returns the paper's line-number label.
func (s Site) String() string { return fmt.Sprintf("%d", int(s)) }

// Pair is a contention pair with a resolution order: First's lock
// acquisition is ordered before Second's.
type Pair struct{ First, Second Site }

// String renders "236 -> 309" like the paper's table.
func (p Pair) String() string { return fmt.Sprintf("%v -> %v", p.First, p.Second) }

// Section5Pairs lists the eight resolve orders of the paper's table, in
// table order.
func Section5Pairs() []Pair {
	return []Pair{
		{S100, S309}, {S309, S100},
		{S236, S309}, {S309, S236},
		{S100, S236}, {S236, S100},
		{S309, S277}, {S277, S309},
	}
}

// Event is one log record.
type Event struct {
	Seq int
	Msg string
}

// FileAppender is the downstream appender with its own lock (the
// deadlock1 partner).
type FileAppender struct {
	mu      *locks.Mutex
	lines   []string
	flushes int
}

func newFileAppender() *FileAppender {
	return &FileAppender{mu: locks.NewMutex("log4j.fileAppender")}
}

// AsyncAppender is the buffered appender with a dispatcher goroutine.
type AsyncAppender struct {
	m    *locks.Mutex
	full *locks.Cond // producers wait here when the buffer is full
	data *locks.Cond // dispatcher waits here for work/control signals
	ack  *locks.Cond // setBufferSize waits here for the resize ack

	buffer     []Event
	bufferSize int
	signal     bool // set by append under the monitor (robust path)
	resizeReq  int  // pending setBufferSize request (0 = none)
	resizeDone bool
	closed     bool

	target       *FileAppender
	dispatched   []Event
	lastFlushSeq int
	dispCount    atomic.Int64

	dead atomic.Bool // run teardown: force the dispatcher to exit
	cfg  *Config
}

// NewAsyncAppender returns an appender with the given buffer size.
func NewAsyncAppender(bufferSize int, cfg *Config) *AsyncAppender {
	m := locks.NewMutex("log4j.monitor")
	return &AsyncAppender{
		m:          m,
		full:       locks.NewCond("log4j.bufferNotFull", m),
		data:       locks.NewCond("log4j.dataAvailable", m),
		ack:        locks.NewCond("log4j.resizeAck", m),
		bufferSize: bufferSize,
		target:     newFileAppender(),
		cfg:        cfg,
	}
}

// pairTrigger fires the contention breakpoint side for site s, if the
// run's pair includes it. action, when non-nil, is the site's guarded
// next instruction (used by the first-action side for strict ordering).
func (a *AsyncAppender) pairTrigger(s Site, action func()) {
	cfg := a.cfg
	if cfg == nil || !cfg.Breakpoint || (cfg.Pair.First != s && cfg.Pair.Second != s) {
		if action != nil {
			action()
		}
		return
	}
	first := cfg.Pair.First == s
	opts := core.Options{Timeout: cfg.Timeout, Bound: 1}
	cfg.Engine.TriggerHereAnd(core.NewConflictTrigger(BPPair, a.m), first, opts, action)
}

// Append enqueues an event (site 100). The signal flag is set under the
// monitor and the notification is delivered under it too — the robust
// producer path.
func (a *AsyncAppender) Append(e Event) {
	a.pairTrigger(S100, func() {
		a.m.LockAt("AsyncAppender.java:100")
		for len(a.buffer) >= a.bufferSize && !a.dead.Load() {
			if !a.full.WaitTimeout(50*time.Millisecond) && a.dead.Load() {
				break
			}
		}
		a.buffer = append(a.buffer, e)
		a.signal = true
		a.data.Notify()
		a.m.Unlock()
	})
}

// SetBufferSize requests a resize (site 236) and blocks until the
// dispatcher acknowledges it. The notification is sent outside the
// monitor and the signal flag is NOT set — the seeded bug.
func (a *AsyncAppender) SetBufferSize(n int) {
	a.pairTrigger(S236, func() {
		a.m.LockAt("AsyncAppender.java:236")
		a.resizeReq = n
		a.resizeDone = false
		a.m.Unlock()
		a.data.Notify() // lossy: fired outside the monitor, no signal flag
	})
	a.m.Lock()
	for !a.resizeDone && !a.dead.Load() {
		a.ack.WaitTimeout(50 * time.Millisecond)
	}
	a.m.Unlock()
}

// Close requests shutdown (site 277); same lossy notification pattern.
func (a *AsyncAppender) Close() {
	a.pairTrigger(S277, func() {
		a.m.LockAt("AsyncAppender.java:277")
		a.closed = true
		a.m.Unlock()
		a.data.Notify() // lossy
	})
}

// Dispatcher is the background drain loop (site 309). Control requests
// (resize, close) are handled only after a *notified* wakeup — the
// missing-recheck that turns a lost notification into a stall.
func (a *AsyncAppender) Dispatcher(done chan<- struct{}) {
	defer close(done)
	notified := true // treat startup as notified
	for !a.dead.Load() {
		a.m.LockAt("AsyncAppender.java:309")
		batch := a.buffer
		a.buffer = nil
		if len(batch) > 0 {
			a.full.NotifyAll()
		}
		sig := a.signal
		a.signal = false
		doControl := sig || notified
		notified = false
		var exit bool
		if doControl {
			if a.resizeReq > 0 {
				a.bufferSize = a.resizeReq
				a.resizeReq = 0
				a.resizeDone = true
				a.ack.Notify()
			}
			if a.closed {
				exit = true
			}
		}
		a.m.Unlock()
		a.dispatch(batch)
		if exit {
			return
		}
		if len(batch) == 0 && !doControl {
			// The window: the sleep decision is made; a notification
			// arriving before the wait below registers is lost.
			a.pairTrigger(S309, nil)
			a.m.Lock()
			if !a.signal {
				notified = a.data.WaitTimeout(a.cfg.pollInterval())
			} else {
				notified = true
			}
			a.m.Unlock()
		}
	}
}

// dispatch forwards a batch to the file appender: FileAppender lock,
// then (to record the flush high-water mark) the AsyncAppender monitor —
// one side of the deadlock1 inversion.
func (a *AsyncAppender) dispatch(batch []Event) {
	if len(batch) == 0 {
		return
	}
	a.target.mu.LockAt("FileAppender.java:doAppend")
	for _, e := range batch {
		a.target.lines = append(a.target.lines, e.Msg)
	}
	a.target.flushes++
	if a.cfg != nil && a.cfg.Breakpoint && a.cfg.Mode == ModeDeadlock {
		a.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock, a.target.mu, a.m), true,
			core.Options{Timeout: a.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: the log4j deadlock repro (FileAppender then AsyncAppender)
	a.m.LockAt("AsyncAppender.java:recordFlush")
	a.lastFlushSeq = batch[len(batch)-1].Seq
	a.m.Unlock()
	a.target.mu.Unlock()
	a.dispatched = append(a.dispatched, batch...)
	a.dispCount.Add(int64(len(batch)))
}

// CloseTarget shuts the downstream appender: AsyncAppender monitor, then
// FileAppender lock — the other side of the deadlock1 inversion.
func (a *AsyncAppender) CloseTarget() {
	a.m.LockAt("AsyncAppender.java:closeTarget")
	defer a.m.Unlock()
	if a.cfg != nil && a.cfg.Breakpoint && a.cfg.Mode == ModeDeadlock {
		a.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock, a.m, a.target.mu), false,
			core.Options{Timeout: a.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: the log4j deadlock repro (AsyncAppender then FileAppender)
	a.target.mu.LockAt("FileAppender.java:close")
	defer a.target.mu.Unlock()
	a.target.flushes++
}

// Dispatched returns the number of events the dispatcher forwarded.
func (a *AsyncAppender) Dispatched() int64 { return a.dispCount.Load() }

// Mode selects the scenario a run exercises.
type Mode int

// Run modes.
const (
	// ModeContention runs the section-5 workload with the configured
	// contention Pair breakpoint.
	ModeContention Mode = iota
	// ModeDeadlock runs the dispatch/closeTarget lock-order deadlock.
	ModeDeadlock
)

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Breakpoint bool
	Timeout    time.Duration
	Mode       Mode
	// Pair is the contention pair and resolve order (ModeContention).
	Pair Pair
	// EventsPerAppender shapes the producer workload (default 40).
	EventsPerAppender int
	// Poll is the dispatcher's timed-wait interval (default 3ms).
	Poll time.Duration
	// StallAfter bounds stall detection (default 3s).
	StallAfter time.Duration
}

// numAppenders is the number of producer appenders.
const numAppenders = 2

func (c *Config) events() int {
	if c.EventsPerAppender <= 0 {
		return 40
	}
	return c.EventsPerAppender
}

func (c *Config) pollInterval() time.Duration {
	if c == nil || c.Poll <= 0 {
		return 3 * time.Millisecond
	}
	return c.Poll
}

func (c *Config) stallAfter() time.Duration {
	if c.StallAfter <= 0 {
		return 3 * time.Second
	}
	return c.StallAfter
}

// pairInvolves100 reports whether the configured pair touches the append
// site; those runs overlap the resize with the producers (the only phase
// in which the pair can rendezvous).
func (c *Config) pairInvolves100() bool {
	return c.Pair.First == S100 || c.Pair.Second == S100
}

// Run executes the log4j workload once: producers append, the buffer is
// resized, the appender is closed, and the dispatcher drains. A stall in
// any phase is the manifested bug.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	if cfg.Mode == ModeDeadlock {
		return runDeadlock(cfg)
	}
	return runContention(cfg)
}

func runContention(cfg Config) appkit.Result {
	app := NewAsyncAppender(8, &cfg)
	total := numAppenders * cfg.events()
	res := appkit.RunWithDeadline(cfg.stallAfter(), func() appkit.Result {
		dispDone := make(chan struct{})
		go app.Dispatcher(dispDone)

		var wg sync.WaitGroup
		for w := 0; w < numAppenders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < cfg.events(); i++ {
					app.Append(Event{Seq: w*cfg.events() + i, Msg: fmt.Sprintf("w%d-%d", w, i)})
					// Pace the producers so resize/close phases overlap
					// a live event stream when they need to.
					time.Sleep(200 * time.Microsecond)
				}
			}(w)
		}

		if cfg.pairInvolves100() {
			// Overlap the resize with the producers so append-site
			// pairs can rendezvous.
			time.Sleep(2 * time.Millisecond)
			app.SetBufferSize(16)
			wg.Wait()
		} else {
			// Quiet phase: resize after the producers finish and the
			// dispatcher has drained everything and consumed the last
			// producer signal — the phase in which a lost notification
			// cannot be rescued.
			wg.Wait()
			for app.Dispatched() != int64(total) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(3 * cfg.pollInterval())
			app.SetBufferSize(4)
		}
		app.Close()
		<-dispDone
		if got := app.Dispatched(); got != int64(total) {
			return appkit.Result{Status: appkit.TestFail,
				Detail: fmt.Sprintf("dispatched %d/%d events", got, total)}
		}
		return appkit.Result{Status: appkit.OK}
	})
	app.dead.Store(true) // release any stalled goroutines' periodic waits
	res.BPHit = cfg.Engine.Stats(BPPair).Hits() > 0
	return res
}

func runDeadlock(cfg Config) appkit.Result {
	app := NewAsyncAppender(8, &cfg)
	res := appkit.RunWithDeadline(cfg.stallAfter(), func() appkit.Result {
		dispDone := make(chan struct{})
		go app.Dispatcher(dispDone)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < cfg.events(); i++ {
				app.Append(Event{Seq: i, Msg: fmt.Sprintf("e%d", i)})
			}
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Millisecond)
			app.CloseTarget()
		}()
		wg.Wait()
		app.Close()
		<-dispDone
		return appkit.Result{Status: appkit.OK}
	})
	app.dead.Store(true)
	res.BPHit = cfg.Engine.Stats(BPDeadlock).Hits() > 0
	return res
}
