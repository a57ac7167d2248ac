// Package jigsaw models W3C's Jigsaw web server as evaluated in the
// paper (Table 1 rows "jigsaw"): a connection factory managing socket
// clients, driven by a harness that simulates concurrent page requests
// and administrative commands. Five bugs are seeded, matching the
// paper's rows:
//
//   - deadlock1 — the Figure 2 deadlock: killClients holds the factory
//     monitor (line 867) and acquires csList (line 872), while
//     clientConnectionFinished holds csList (line 623) and calls
//     decrIdleCount, which needs the factory monitor (line 574).
//   - deadlock2 — the access logger's lock crosses the factory monitor
//     on the log-vs-shutdown paths.
//   - missed-notify1 — the idle-client reaper's lost wakeup (found with
//     Methodology II in the paper).
//   - race1 — the idle-count bookkeeping is a racy read-modify-write; a
//     lost decrement leaves the shutdown barrier waiting for an idle
//     count that never reaches zero: a stall.
//   - race2 — the requests-served statistic loses updates (no visible
//     error beyond a wrong count).
package jigsaw

import (
	"fmt"
	"sync"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
	"cbreak/internal/memory"
)

// Breakpoint names for engine statistics.
const (
	BPDeadlock1    = "jigsaw.deadlock1"
	BPDeadlock2    = "jigsaw.deadlock2"
	BPMissedNotify = "jigsaw.missed-notify1"
	BPRace1        = "jigsaw.race1"
	BPRace2        = "jigsaw.race2"
)

// Request is an incoming HTTP-ish request.
type Request struct {
	Path   string
	Client int
}

// Response is the server's reply.
type Response struct {
	Status int
	Body   string
}

// SocketClient is one pooled connection handler.
type SocketClient struct {
	ID   int
	idle bool
}

// ClientList is the csList of Figure 2: the factory's client registry
// with its own monitor.
type ClientList struct {
	mu      *locks.Mutex
	clients []*SocketClient
}

func newClientList() *ClientList {
	return &ClientList{mu: locks.NewMutex("jigsaw.csList")}
}

// Factory is the SocketClientFactory: the paper's deadlock participant.
type Factory struct {
	mu     *locks.Mutex // the factory monitor ("this" of Figure 2)
	csList *ClientList

	logMu     *locks.Mutex // access logger lock (deadlock2 partner)
	accessLog []string

	idleCount      *memory.Cell // race1: racy idle bookkeeping
	requestsServed *memory.Cell // race2: racy statistics

	reapCond *locks.Cond // missed-notify1: reaper wakeup
	reaped   int

	cfg *Config
}

// NewFactory returns a factory with n idle clients registered.
func NewFactory(n int, cfg *Config) *Factory {
	sp := memory.NewSpace()
	mu := locks.NewMutex("jigsaw.factory")
	f := &Factory{
		mu:             mu,
		csList:         newClientList(),
		logMu:          locks.NewMutex("jigsaw.logger"),
		idleCount:      memory.NewCell(sp, "jigsaw.idleCount", 0),
		requestsServed: memory.NewCell(sp, "jigsaw.requestsServed", 0),
		cfg:            cfg,
	}
	f.reapCond = locks.NewCond("jigsaw.reap", mu)
	for i := 0; i < n; i++ {
		f.csList.clients = append(f.csList.clients, &SocketClient{ID: i, idle: true})
	}
	//cbvet:ignore conflicts single-threaded constructor store; the racy idleCount sites are the reproduced Figure 2 bug
	f.idleCount.Store("init", int64(n))
	return f
}

// decrIdleCount (Figure 2 line 574): the factory monitor guards the
// client bookkeeping, but the counter update itself is a racy
// read-modify-write performed outside it (race1) — the unsynchronized
// statistics path of the original bug.
func (f *Factory) decrIdleCount(worker int) {
	f.mu.LockAt("SocketClientFactory.java:574")
	f.mu.Unlock()
	v := f.idleCount.Load("jigsaw.go:idle.read")
	if f.cfg.bug(Race1) {
		f.cfg.Engine.TriggerHere(core.NewConflictTrigger(BPRace1, f.idleCount), worker == 0,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	f.idleCount.Store("jigsaw.go:idle.write", v-1)
}

// incrIdleCount restores an idle slot (same racy pattern; the second
// side of race1 when two finishing connections interleave).
func (f *Factory) incrIdleCount(worker int) {
	v := f.idleCount.Load("jigsaw.go:idle.read2")
	if f.cfg.bug(Race1) {
		f.cfg.Engine.TriggerHere(core.NewConflictTrigger(BPRace1, f.idleCount), worker != 0,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	f.idleCount.Store("jigsaw.go:idle.write2", v+1)
}

// ClientConnectionFinished (Figure 2 line 618): csList monitor (623),
// then decrIdleCount's factory monitor (574) — one side of deadlock1.
func (f *Factory) ClientConnectionFinished(worker int) {
	f.csList.mu.LockAt("SocketClientFactory.java:623")
	defer f.csList.mu.Unlock()
	if f.cfg.bug(Deadlock1) {
		f.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock1, f.csList.mu, f.mu), true,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: deadlock1 of the paper's Jigsaw study (line 626 -> 574)
	f.decrIdleCount(worker)
}

// KillClients (Figure 2 line 867): factory monitor, then csList (872) —
// the other side of deadlock1.
func (f *Factory) KillClients() int {
	f.mu.LockAt("SocketClientFactory.java:867")
	defer f.mu.Unlock()
	if f.cfg.bug(Deadlock1) {
		f.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock1, f.mu, f.csList.mu), false,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: deadlock1 of the paper's Jigsaw study (line 867 -> 872)
	f.csList.mu.LockAt("SocketClientFactory.java:872")
	defer f.csList.mu.Unlock()
	killed := 0
	for _, c := range f.csList.clients {
		if c.idle {
			c.idle = false
			killed++
		}
	}
	return killed
}

// LogAccess records an access-log line: logger lock, then the factory
// monitor for the current count — one side of deadlock2.
func (f *Factory) LogAccess(req Request) {
	f.logMu.LockAt("CommonLogger.java:log")
	defer f.logMu.Unlock()
	if f.cfg.bug(Deadlock2) {
		f.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock2, f.logMu, f.mu), true,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: deadlock2 of the paper's Jigsaw study (logger then factory)
	f.mu.LockAt("SocketClientFactory.java:getClientCount")
	n := len(f.csList.clients)
	f.mu.Unlock()
	f.accessLog = append(f.accessLog, fmt.Sprintf("%s clients=%d", req.Path, n))
}

// Shutdown flushes the logger under the factory monitor — the other
// side of deadlock2.
func (f *Factory) Shutdown() {
	f.mu.LockAt("SocketClientFactory.java:shutdown")
	defer f.mu.Unlock()
	if f.cfg.bug(Deadlock2) {
		f.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock2, f.mu, f.logMu), false,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: deadlock2 of the paper's Jigsaw study (factory then logger)
	f.logMu.LockAt("CommonLogger.java:flush")
	defer f.logMu.Unlock()
	f.accessLog = append(f.accessLog, "shutdown")
}

// Serve handles one request and updates the racy served counter
// (race2).
func (f *Factory) Serve(req Request, worker int) Response {
	v := f.requestsServed.Load("jigsaw.go:served.read")
	if f.cfg.bug(Race2) {
		f.cfg.Engine.TriggerHere(core.NewConflictTrigger(BPRace2, f.requestsServed), worker == 0,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	f.requestsServed.Store("jigsaw.go:served.write", v+1)
	return Response{Status: 200, Body: "<html>" + req.Path + "</html>"}
}

// NotifyClientAvailable wakes the reaper — but outside the factory
// monitor and without setting any flag: the lossy side of
// missed-notify1.
func (f *Factory) NotifyClientAvailable() {
	notify := f.reapCond.Notify
	if f.cfg.bug(MissedNotify) {
		f.cfg.Engine.TriggerHereAnd(core.NewNotifyTrigger(BPMissedNotify, f.reapCond), true,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1}, notify)
	} else {
		notify()
	}
}

// AwaitClientAvailable is the reaper's wait: the availability test and
// the wait are separated by an unprotected window (the bug); the
// second-action breakpoint side sits in that window.
func (f *Factory) AwaitClientAvailable() {
	f.mu.Lock()
	available := f.idleCount.Load("jigsaw.go:reap.check") > 0
	f.mu.Unlock()
	if available {
		return
	}
	if f.cfg.bug(MissedNotify) {
		f.cfg.Engine.TriggerHere(core.NewNotifyTrigger(BPMissedNotify, f.reapCond), false,
			core.Options{Timeout: f.cfg.Timeout, Bound: 1})
	}
	f.mu.Lock()
	f.reapCond.Wait() // waits on the stale availability test
	f.mu.Unlock()
}

// Bug selects which seeded bug a run exercises.
type Bug int

// The jigsaw bugs of Table 1.
const (
	Deadlock1 Bug = iota
	Deadlock2
	MissedNotify
	Race1
	Race2
)

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Bug        Bug
	Breakpoint bool
	Timeout    time.Duration
	// StallAfter bounds stall detection (default 2s).
	StallAfter time.Duration
}

// numRequests is the simulated client load.
const numRequests = 40

func (c *Config) bug(b Bug) bool {
	return c != nil && c.Breakpoint && c.Bug == b && c.Engine != nil
}

func (c *Config) stallAfter() time.Duration {
	if c.StallAfter <= 0 {
		return 2 * time.Second
	}
	return c.StallAfter
}

func bpName(b Bug) string {
	switch b {
	case Deadlock1:
		return BPDeadlock1
	case Deadlock2:
		return BPDeadlock2
	case MissedNotify:
		return BPMissedNotify
	case Race1:
		return BPRace1
	default:
		return BPRace2
	}
}

// Run drives the server harness once: simulated clients issue page
// requests while administrative commands (killClients, shutdown) arrive
// concurrently — the paper's Jigsaw test harness in miniature.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	f := NewFactory(4, &cfg)
	res := appkit.RunWithDeadline(cfg.stallAfter(), func() appkit.Result {
		switch cfg.Bug {
		case Deadlock1:
			return runDeadlock1(f, &cfg)
		case Deadlock2:
			return runDeadlock2(f, &cfg)
		case MissedNotify:
			return runMissedNotify(f, &cfg)
		case Race1:
			return runRace1(f, &cfg)
		default:
			return runRace2(f, &cfg)
		}
	})
	res.BPHit = cfg.Engine.Stats(bpName(cfg.Bug)).Hits() > 0
	return res
}

// requestWork is how long a connection works on a request before it
// reaches the factory: reading the request and producing the page.
const requestWork = time.Millisecond

// runDeadlock1 finishes client connections while the admin kills idle
// clients. The admin's command arrives, by a handshake, as the first
// connection starts its work, so it overlaps the connection loop at the
// same point on any machine: it takes the factory monitor and csList
// during that work, and meets a connection inside its csList-then-factory
// window only if the scheduler delays it past a whole request. With the
// breakpoint, the admin waits in its window for the connection to enter
// its own.
func runDeadlock1(f *Factory, cfg *Config) appkit.Result {
	done := make(chan struct{}, 2)
	working := make(chan struct{})
	go func() { // client connections finishing
		close(working)
		for i := 0; i < numRequests/4; i++ {
			time.Sleep(requestWork)
			f.ClientConnectionFinished(0)
			f.incrIdleCount(0)
		}
		done <- struct{}{}
	}()
	go func() { // admin killing idle clients
		<-working
		f.KillClients()
		done <- struct{}{}
	}()
	<-done
	<-done
	return appkit.Result{Status: appkit.OK}
}

// runDeadlock2 logs requests while the admin shuts the server down, with
// the same handshake as runDeadlock1: the shutdown arrives as the first
// request is being worked on, and meets a log call inside its
// logger-then-factory window only if the scheduler delays it past a
// whole request.
func runDeadlock2(f *Factory, cfg *Config) appkit.Result {
	done := make(chan struct{}, 2)
	working := make(chan struct{})
	go func() {
		close(working)
		for i := 0; i < numRequests; i++ {
			time.Sleep(requestWork)
			f.LogAccess(Request{Path: fmt.Sprintf("/page/%d", i)})
		}
		done <- struct{}{}
	}()
	go func() {
		<-working
		f.Shutdown()
		done <- struct{}{}
	}()
	<-done
	<-done
	return appkit.Result{Status: appkit.OK}
}

func runMissedNotify(f *Factory, cfg *Config) appkit.Result {
	f.idleCount.Store("setup", 0) // exhausted: reaper must wait
	done := make(chan struct{}, 1)
	go func() {
		f.AwaitClientAvailable()
		done <- struct{}{}
	}()
	go func() {
		time.Sleep(time.Millisecond)
		f.mu.Lock()
		f.idleCount.Store("release", 1)
		f.mu.Unlock()
		f.NotifyClientAvailable()
	}()
	<-done
	return appkit.Result{Status: appkit.OK}
}

func runRace1(f *Factory, cfg *Config) appkit.Result {
	var wg sync.WaitGroup
	wg.Add(2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer wg.Done()
			// A connection waits on its socket, then computes its
			// response before it goes idle again. The two waits differ,
			// but every sleep under a millisecond rounds up to the same
			// ~1.1 ms timer tick on Linux, so the cadences are nearly
			// equal and workers that wake together stay close. The
			// per-worker response work (about 150 µs and 400 µs on a
			// 2.1 GHz Xeon) puts their increments apart after such a
			// wake; the decrements need no offset, as each takes the
			// factory monitor first. The loops still drift through
			// each other's phase now and then, so once the breakpoint
			// is spent a natural lost update remains possible.
			wait := time.Duration(400+300*w) * time.Microsecond
			respond := 94_000 + 156_000*w
			for i := 0; i < numRequests/2; i++ {
				f.decrIdleCount(w)
				time.Sleep(wait) // connection I/O
				appkit.Busy(respond)
				f.incrIdleCount(w)
				time.Sleep(wait / 2) // idle gap
			}
		}(w)
	}
	wg.Wait()
	// Shutdown barrier: waits for all clients to be idle again. A lost
	// update leaves the counter off forever — the paper's race1 stall.
	// The spin is bounded so an abandoned run's goroutine terminates.
	deadline := time.Now().Add(2 * cfg.stallAfter())
	for f.idleCount.Load("barrier") != 4 {
		if time.Now().After(deadline) {
			return appkit.Result{Status: appkit.Stall, Detail: "idle-count barrier never satisfied"}
		}
		time.Sleep(time.Millisecond)
	}
	return appkit.Result{Status: appkit.OK}
}

func runRace2(f *Factory, cfg *Config) appkit.Result {
	// Drive the race through the real HTTP surface: two keep-alive
	// clients whose request handlers race on the served counter.
	total := numRequests
	ok, err := f.ServeHTTPLoad(2, total/2)
	if err != nil {
		return appkit.Result{Status: appkit.TestFail, Detail: "http error: " + err.Error()}
	}
	if ok != total {
		return appkit.Result{Status: appkit.TestFail,
			Detail: fmt.Sprintf("only %d/%d responses ok", ok, total)}
	}
	if got := f.requestsServed.Load("check"); got != int64(total) {
		return appkit.Result{Status: appkit.TestFail,
			Detail: fmt.Sprintf("served counter lost updates: %d/%d", got, total)}
	}
	return appkit.Result{Status: appkit.OK}
}
