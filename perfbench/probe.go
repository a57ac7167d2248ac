package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cbreak/internal/apps/appboot"
	"cbreak/internal/apps/appkit"
	"cbreak/internal/apps/httpd"
	"cbreak/internal/core"
	"cbreak/internal/harness"
	"cbreak/internal/journal"
	"cbreak/internal/journal/sink"
	"cbreak/internal/locks"
	"cbreak/internal/netchaos"
	"cbreak/internal/telemetry"
	"cbreak/internal/waitgraph"
)

// A traced run interleaves probe rounds into its traced slices: at a
// fixed low rate, one timed call group into each lower layer's public
// entry point, each recorded as a span whose parent is the workload
// operation it ran beside. Per-call times are span time over the
// group's call count; a layer's self time comes by subtraction:
//
//	netchaos.hop_us  = through-proxy Client.Do − direct Client.Do
//	appkit.direct_us = direct Client.Do − httpd Server.Handle
//
// Micro-probes reuse one trigger, so core.*_ns is the engine path
// without the call site's trigger allocation. Probes run on their own
// engine, journal and sink, so the workloads' counters and checks see
// none of them; only the socket probes reach socket-httpd's own app,
// and their replies join its checks.
const (
	probeEvery = 100 * time.Millisecond
	trialEvery = 10 // a probe trial every this many rounds (non-repro)
	microCalls = 1000
	lockCalls  = 100 // an instrumented Lock/Unlock pair costs microseconds
	sinkCalls  = 100
	handleReps = 10
)

const (
	probeRefinedBP  = "perfbench.probe.refined"
	probeDisabledBP = "perfbench.probe.disabled"
)

type noopTap struct{}

func (noopTap) Deliver(telemetry.Record) {}

type probeKit struct {
	e                *core.Engine
	refined, off     *core.Breakpoint
	refTrig, offTrig core.Trigger
	idle, tapped     *telemetry.Bus
	mu               *locks.Mutex
	dir              string
	j                *journal.Journal
	snk              *sink.Sink
	shadow           *httpd.Server
	ownApp           *appboot.App
	ownProxy         *netchaos.Proxy
	direct, proxied  *netchaos.Client
	replies          *replyLog // where socket replies are checked
	trial            *harness.TrialSpec
	trialDeadline    time.Duration

	samples map[string][]float64 // per-call ns by probe
	trials  []trialSample
	rounds  int
	calls   int64
	wrong   int64

	stopCh chan struct{}
	done   sync.WaitGroup
}

func newProbeKit(r *run, fx fixture) (*probeKit, error) {
	k := &probeKit{e: core.NewEngine(), idle: telemetry.NewBus(), tapped: telemetry.NewBus(),
		mu: locks.NewMutex("perfbench.probe"), samples: map[string][]float64{}}
	if err := k.open(r, fx); err != nil {
		k.close()
		return nil, err
	}
	return k, nil
}

func (k *probeKit) open(r *run, fx fixture) error {
	k.tapped.AttachTap(noopTap{})
	// A refined handle whose bound is spent, and a disabled one.
	k.refined, k.off = k.e.Breakpoint(probeRefinedBP), k.e.Breakpoint(probeDisabledBP)
	obj := new(int)
	k.refTrig = core.NewConflictTrigger(probeRefinedBP, obj)
	k.offTrig = core.NewConflictTrigger(probeDisabledBP, obj)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.refined.TriggerOutcome(k.refTrig, g == 0, core.Options{Bound: 1, Timeout: time.Second})
		}()
	}
	wg.Wait()
	if k.refined.Stats().Hits() != 1 {
		return fmt.Errorf("probe breakpoint not hit in set-up")
	}
	k.e.SetBreakpointEnabled(probeDisabledBP, false)

	dir, err := os.MkdirTemp(r.tmp, "probe-")
	if err != nil {
		return err
	}
	k.dir = dir
	if k.j, err = journal.Open(journal.Options{Dir: filepath.Join(dir, "journal"), Sync: journal.SyncNone}); err != nil {
		return err
	}
	if k.snk, err = sink.Open(filepath.Join(dir, "sink"), journal.SyncNone); err != nil {
		return err
	}
	k.shadow = httpd.NewServer(&httpd.Config{Engine: k.e, Bug: httpd.LogCorruption})

	// The socket probes reach socket-httpd's own app and proxy; other
	// workloads get an app and proxy of the kit's own.
	if s, ok := fx.(*socketFixture); ok {
		k.direct, k.proxied, k.replies = newLoadClient(s.app.Addr), newLoadClient(s.px.Addr()), &s.replies
		s.clients = append(s.clients, k.direct, k.proxied)
	} else {
		if k.ownApp, err = appboot.StartApp(k.e, appboot.Spec{App: "httpd", Bug: "none"}); err != nil {
			return err
		}
		r.listen(k.ownApp.Addr)
		if k.ownProxy, err = netchaos.Start(k.ownApp.Addr, netchaos.Config{Seed: appkit.DeriveSeed(r.seed, 7)}); err != nil {
			return err
		}
		r.listen(k.ownProxy.Addr())
		k.direct, k.proxied, k.replies = newLoadClient(k.ownApp.Addr), newLoadClient(k.ownProxy.Addr()), &replyLog{}
	}

	// repro's own trials give the trial-derived timings; elsewhere a
	// probe trial does.
	if _, ok := fx.(*reproFixture); !ok {
		in, err := loadReproInputs()
		if err != nil {
			return err
		}
		spec, err := resolveRow(in.ProbeTrial)
		if err != nil {
			return err
		}
		k.trial, k.trialDeadline = &spec, time.Duration(in.TrialDeadlineMS)*time.Millisecond
	}
	return nil
}

// start runs probe rounds in the traced slices until stop.
func (k *probeKit) start(r *run) {
	k.stopCh = make(chan struct{})
	k.done.Add(1)
	go func() {
		defer k.done.Done()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-k.stopCh:
				return
			case now := <-tick.C:
				if r.clk.class(now) == 1 {
					k.round(r)
				}
			}
		}
	}()
}

func (k *probeKit) stop() {
	close(k.stopCh)
	k.done.Wait()
}

// timed records one probe call group of n calls that began at t0.
func (k *probeKit) timed(r *run, name string, parent uint64, t0 time.Time, n int) {
	t1 := time.Now()
	r.spans.add("probe."+name, r.spans.next.Add(1), parent, t0, t1)
	k.samples[name] = append(k.samples[name], float64(t1.Sub(t0).Nanoseconds())/float64(n))
	k.calls += int64(n)
}

func (k *probeKit) round(r *run) {
	parent := r.spans.cur.Load()
	k.rounds++
	opts := core.Options{Bound: 1}

	t0 := time.Now()
	for i := 0; i < microCalls; i++ {
		if k.refined.TriggerOutcome(k.refTrig, true, opts) != core.OutcomeLocalFalse {
			k.wrong++
		}
	}
	k.timed(r, "core.refined", parent, t0, microCalls)

	t0 = time.Now()
	for i := 0; i < microCalls; i++ {
		if k.off.TriggerOutcome(k.offTrig, true, opts) != core.OutcomeDisabled {
			k.wrong++
		}
	}
	k.timed(r, "core.disabled", parent, t0, microCalls)

	rec := telemetry.Record{Kind: telemetry.RecordEvent,
		Event: core.Event{When: t0, Kind: core.EventArrived, Breakpoint: probeRefinedBP}}
	t0 = time.Now()
	for i := 0; i < microCalls; i++ {
		k.idle.Publish(rec)
	}
	k.timed(r, "telemetry.publish_idle", parent, t0, microCalls)

	t0 = time.Now()
	for i := 0; i < microCalls; i++ {
		k.tapped.Publish(rec)
	}
	k.timed(r, "telemetry.publish_tap", parent, t0, microCalls)

	t0 = time.Now()
	for i := 0; i < lockCalls; i++ {
		k.mu.Lock()
		k.mu.Unlock()
	}
	k.timed(r, "locks.lock_unlock", parent, t0, lockCalls)

	t0 = time.Now()
	for i := 0; i < sinkCalls; i++ {
		k.snk.RecordEvent(rec.Event)
	}
	k.timed(r, "sink.record", parent, t0, sinkCalls)

	payload := []byte(`{"kind":"engine-event","seq":1,"event":"arrived","breakpoint":"perfbench.probe.refined","gid":0,"first":true}`)
	t0 = time.Now()
	for i := 0; i < sinkCalls; i++ {
		if _, err := k.j.Append(payload); err != nil {
			k.wrong++
		}
	}
	k.timed(r, "journal.append", parent, t0, sinkCalls)

	t0 = time.Now()
	if err := k.j.Sync(); err != nil {
		k.wrong++
	}
	k.timed(r, "journal.sync", parent, t0, 1)

	t0 = time.Now()
	waitgraph.Capture(k.e).Analyze()
	k.timed(r, "waitgraph.scan", parent, t0, 1)

	t0 = time.Now()
	for i := 0; i < handleReps; i++ {
		if err := k.shadow.Handle(httpd.Request{ID: k.rounds*handleReps + i, Path: "/page/1"}, 0); err != nil {
			k.wrong++
		}
	}
	k.timed(r, "httpd.handle", parent, t0, handleReps)

	sockets := []struct {
		name   string
		client *netchaos.Client
	}{{"appkit.direct", k.direct}, {"netchaos.proxied", k.proxied}}
	if k.rounds%2 == 0 { // alternate which goes first
		sockets[0], sockets[1] = sockets[1], sockets[0]
	}
	for _, c := range sockets {
		t0 = time.Now()
		reply, err := c.client.Do(fmt.Sprintf("GET /page/%d", k.rounds))
		k.timed(r, c.name, parent, t0, 1)
		if !k.replies.record(reply, err) {
			k.wrong++
		}
	}

	if k.trial != nil && k.rounds%trialEvery == 1 {
		appkit.SeedJitter(harness.TrialSeed(r.seed, k.trial.Key, k.rounds))
		t0 = time.Now()
		out := harness.RunTrialCtx(context.Background(), k.trialDeadline, *k.trial)
		k.timed(r, "harness.trial", parent, t0, 1)
		k.trials = append(k.trials, sampleTrial(out, 0, t0.Sub(r.clk.start), time.Since(t0)))
	}
}

// layer sets the probe-derived per-layer metrics.
func (k *probeKit) layer(r *run) {
	med := func(name string) float64 { return median(k.samples[name]) }
	r.layer["core.refined_ns"] = med("core.refined")
	r.layer["core.disabled_ns"] = med("core.disabled")
	r.layer["telemetry.publish_idle_ns"] = med("telemetry.publish_idle")
	r.layer["telemetry.publish_tap_ns"] = med("telemetry.publish_tap")
	r.layer["locks.lock_unlock_ns"] = med("locks.lock_unlock")
	r.layer["sink.record_us"] = med("sink.record") / 1e3
	r.layer["journal.append_us"] = med("journal.append") / 1e3
	r.layer["journal.sync_ms"] = med("journal.sync") / 1e6
	r.layer["waitgraph.scan_us"] = med("waitgraph.scan") / 1e3
	handle := med("httpd.handle")
	direct := med("appkit.direct")
	r.layer["httpd.handle_us"] = handle / 1e3
	r.layer["appkit.direct_us"] = (direct - handle) / 1e3
	r.layer["netchaos.hop_us"] = (med("netchaos.proxied") - direct) / 1e3
	if k.trial != nil {
		trialLayer(r.layer, k.trials)
	}
	r.details["probes"] = map[string]any{"rounds": k.rounds, "trials": len(k.trials), "wrong": k.wrong,
		"direct_us": direct / 1e3, "proxied_us": med("netchaos.proxied") / 1e3}
	r.check("probe outcomes", checkOutcomes(k.wrong, k.calls))
}

// close releases everything the kit opened.
func (k *probeKit) close() {
	if k.ownProxy != nil {
		k.ownProxy.Close()
	}
	if k.ownApp != nil {
		k.ownApp.Close()
	}
	if k.snk != nil {
		k.snk.Close()
	}
	if k.j != nil {
		k.j.Close()
	}
	if k.dir != "" {
		os.RemoveAll(k.dir)
	}
}
