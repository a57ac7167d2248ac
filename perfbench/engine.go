package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
)

// engine-hot: two goroutines arrive at eight shared breakpoints with
// the apps' call-site shape (a ConflictTrigger built per call,
// Options{Bound: 1}). Set-up hits each breakpoint once, so the bound
// rejects every timed arrival; one breakpoint in four is switched off;
// no bus listener is attached.
const (
	engineBPs   = 8
	engineBatch = 4096 // arrivals timed together
	planLen     = 4096 // per-goroutine breakpoint sequence, cycled
)

var engineBPNames = [engineBPs]string{
	"perfbench.bp0", "perfbench.bp1", "perfbench.bp2", "perfbench.bp3",
	"perfbench.bp4", "perfbench.bp5", "perfbench.bp6", "perfbench.bp7",
}

type engineFixture struct {
	e     *core.Engine
	bps   [engineBPs]*core.Breakpoint
	objs  [engineBPs]*int
	off   [engineBPs]bool
	plans [2][]uint8
	setup [engineBPs]core.StatsSnapshot
}

// enginePlan is the seed-driven input of engine-hot: which
// breakpoints are switched off, and each goroutine's breakpoint
// sequence.
func enginePlan(seed int64) (off [engineBPs]bool, plans [2][]uint8) {
	st := appkit.NewStream(seed)
	for n := 0; n < engineBPs/4; {
		if i := st.Intn(engineBPs); !off[i] {
			off[i] = true
			n++
		}
	}
	for g := range plans {
		ps := appkit.DeriveStream(seed, int64(g+1))
		plans[g] = make([]uint8, planLen)
		for j := range plans[g] {
			plans[g][j] = uint8(ps.Intn(engineBPs))
		}
	}
	return off, plans
}

func setupEngineHot(r *run) (fixture, error) {
	f := &engineFixture{e: core.NewEngine()}
	f.off, f.plans = enginePlan(r.seed)
	for i := range f.bps {
		f.bps[i] = f.e.Breakpoint(engineBPNames[i])
		f.objs[i] = new(int)
	}
	if err := f.firstHits(); err != nil {
		return nil, err
	}
	for i, off := range f.off {
		if off {
			f.e.SetBreakpointEnabled(engineBPNames[i], false)
		}
	}
	f.setup = f.snapshot()
	return f, nil
}

// firstHits brings two goroutines through every breakpoint in step,
// so each is hit exactly once.
func (f *engineFixture) firstHits() error {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, bp := range f.bps {
				bp.TriggerOutcome(core.NewConflictTrigger(engineBPNames[i], f.objs[i]), g == 0,
					core.Options{Bound: 1, Timeout: time.Second})
			}
		}()
	}
	wg.Wait()
	for _, bp := range f.bps {
		if h := bp.Stats().Hits(); h != 1 {
			return fmt.Errorf("%s: %d hits after set-up, want 1", bp.Name(), h)
		}
	}
	return nil
}

func (f *engineFixture) snapshot() (s [engineBPs]core.StatsSnapshot) {
	for i, bp := range f.bps {
		s[i] = bp.Stats().Snapshot()
	}
	return s
}

// engineWorker is one load goroutine's tally.
type engineWorker struct {
	log   *opLog
	calls [engineBPs]int64
	wrong int64
}

func (f *engineFixture) work(r *run, g int, w *engineWorker, want *[engineBPs]core.Outcome, stop *atomic.Bool) {
	plan, first, opts := f.plans[g], g == 0, core.Options{Bound: 1}
	j := 0
	for !stop.Load() {
		t0 := time.Now()
		id := r.beginOp(t0)
		for n := 0; n < engineBatch; n++ {
			i := plan[j&(planLen-1)]
			j++
			if f.bps[i].TriggerOutcome(core.NewConflictTrigger(engineBPNames[i], f.objs[i]), first, opts) != want[i] {
				w.wrong++
			}
			w.calls[i]++
		}
		r.endOp(w.log, "engine.batch", id, t0, time.Since(t0), engineBatch)
	}
}

func (f *engineFixture) measure(r *run) error {
	var want [engineBPs]core.Outcome
	for i, off := range f.off {
		want[i] = core.OutcomeLocalFalse
		if off {
			want[i] = core.OutcomeDisabled
		}
	}
	workers := [2]*engineWorker{{log: newOpLog(sampleCap / 2)}, {log: newOpLog(sampleCap / 2)}}
	var stop atomic.Bool
	var wg sync.WaitGroup
	deadline := r.startWindow()
	for g, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.work(r, g, w, &want, &stop)
		}()
	}
	time.Sleep(time.Until(deadline))
	stop.Store(true)
	wg.Wait()
	r.endWindow()
	r.merge(workers[0].log, workers[1].log)
	r.latScale = engineBatch

	after := f.snapshot()
	counts := make([]bpCount, engineBPs)
	var calls, wrong, disabled int64
	for i := range f.bps {
		n := workers[0].calls[i] + workers[1].calls[i]
		calls += n
		c := bpCount{Name: engineBPNames[i], SetupArrivals: f.setup[i].Arrivals, SetupLocalFalses: f.setup[i].LocalFalses,
			Arrivals: after[i].Arrivals, LocalFalses: after[i].LocalFalses}
		if f.off[i] {
			disabled += n
		} else {
			c.EnabledCalls = n
		}
		counts[i] = c
	}
	wrong = workers[0].wrong + workers[1].wrong
	r.attempted, r.failed, r.good = calls, wrong, calls-wrong
	r.check("planned outcomes", checkOutcomes(wrong, calls))
	r.check("breakpoint counters", checkEngineCounters(counts))
	coreLayer(r.layer, statsDelta(f.setup[:], after[:]))
	r.layer["core.disabled"] = float64(disabled)
	r.details["inputs"] = map[string]any{"disabled": f.off, "plan_len": planLen, "batch": engineBatch}
	return nil
}

func (f *engineFixture) close() error { return nil }

// statsDelta returns each breakpoint's counters accrued between two
// snapshots, matched by name.
func statsDelta(before, after []core.StatsSnapshot) []core.StatsSnapshot {
	prev := make(map[string]core.StatsSnapshot, len(before))
	for _, b := range before {
		prev[b.Name] = b
	}
	out := make([]core.StatsSnapshot, len(after))
	for i, a := range after {
		b := prev[a.Name]
		out[i] = core.StatsSnapshot{Name: a.Name, Arrivals: a.Arrivals - b.Arrivals,
			LocalFalses: a.LocalFalses - b.LocalFalses, Postpones: a.Postpones - b.Postpones,
			Hits: a.Hits - b.Hits, Timeouts: a.Timeouts - b.Timeouts}
	}
	return out
}

// coreLayer sets the core counters from per-breakpoint counts.
func coreLayer(layer map[string]float64, counts []core.StatsSnapshot) {
	var arr, lf, pp, hits, tos int64
	for _, c := range counts {
		arr += c.Arrivals
		lf += c.LocalFalses
		pp += c.Postpones
		hits += c.Hits
		tos += c.Timeouts
	}
	layer["core.arrivals"] = float64(arr)
	layer["core.local_false"] = float64(lf)
	layer["core.postpones"] = float64(pp)
	layer["core.hits"] = float64(hits)
	layer["core.timeouts"] = float64(tos)
	if pp > 0 {
		layer["core.hit_ratio"] = float64(hits) / float64(pp)
	}
}
