package harness

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/waitgraph"
)

// engineObserver holds the optional per-trial engine hook (see
// SetTrialEngineObserver).
var engineObserver atomic.Pointer[func(e *core.Engine, spec TrialSpec)]

// SetTrialEngineObserver installs a process-wide hook invoked with
// every freshly created trial engine before the trial body runs, or
// removes it with nil. Trials create their engines internally (one
// fresh engine per trial, so no state leaks between trials); the
// observer is how cross-cutting instrumentation — notably a durable
// event/incident sink (core.Engine.SetDurableSink with a
// journal/sink.Sink) — reaches them. Safe to swap concurrently with
// running trials; each trial sees the hook installed at its start.
func SetTrialEngineObserver(f func(e *core.Engine, spec TrialSpec)) {
	if f == nil {
		engineObserver.Store(nil)
		return
	}
	engineObserver.Store(&f)
}

// trialEngine builds the fresh engine for one trial and runs the
// observer hook on it.
func trialEngine(spec TrialSpec) *core.Engine {
	e := core.NewEngine()
	if !spec.Breakpoint {
		e.SetEnabled(false)
	}
	if f := engineObserver.Load(); f != nil {
		(*f)(e, spec)
	}
	return e
}

// TrialKey is the stable address of one measurement configuration: a
// table, a row index within that table's spec list, and a variant
// ("base" = breakpoints disabled, "with" = enabled). Campaign
// supervisors journal trials by key and campaign workers resolve a key
// back to runnable code with ResolveSpec, so a trial can be re-executed
// in a different process than the one that scheduled it.
type TrialKey struct {
	Table   string `json:"table"`
	Row     int    `json:"row"`
	Variant string `json:"variant"`
}

// Trial variants.
const (
	// VariantBase runs with breakpoints disabled (the "Normal" columns).
	VariantBase = "base"
	// VariantWith runs with breakpoints enabled.
	VariantWith = "with"
)

// String formats the key as table/row/variant.
func (k TrialKey) String() string {
	return fmt.Sprintf("%s/%d/%s", k.Table, k.Row, k.Variant)
}

// TrialSpec is one runnable measurement configuration: the key plus the
// resolved in-process runner and its parameters.
type TrialSpec struct {
	// Key addresses the spec across processes.
	Key TrialKey
	// Label is the human-readable benchmark/bug name for logs.
	Label string
	// Runs is how many trials the measurement aggregates.
	Runs int
	// Breakpoint selects whether concurrent breakpoints are inserted.
	Breakpoint bool
	// Timeout is the breakpoint pause time T.
	Timeout time.Duration
	// Run executes one trial (not serialized; workers re-resolve it).
	Run RunFunc
}

// TrialOutcome is the full record of one executed trial: the
// application result plus the engine's observability snapshots, so
// journaled campaign output doubles as a hardening artifact.
type TrialOutcome struct {
	// Result is the application outcome.
	Result appkit.Result `json:"result"`
	// BPWait is the trial's total time spent postponed at breakpoints.
	BPWait time.Duration `json:"bp_wait_ns"`
	// Stats holds the per-breakpoint counter snapshots at trial end.
	Stats []core.StatsSnapshot `json:"stats,omitempty"`
	// Incidents holds the guard incident totals (panics, stalls,
	// forced releases, breaker transitions) keyed by kind label.
	Incidents map[string]int64 `json:"incidents,omitempty"`
	// Cycles holds the wait-graph supervisor's confirmed findings for
	// the trial — deadlock cycles and postponement stalls, each naming
	// the goroutines, locks, classes, sites, and breakpoints involved.
	// Campaign journals embed the full outcome, so a deadlocked trial's
	// checkpoint record carries its own diagnosis.
	Cycles []waitgraph.Report `json:"cycles,omitempty"`
}

// outcomeFrom snapshots the engine's counters around a finished (or
// abandoned) trial. Snapshots are atomic, so reading them while an
// abandoned trial goroutine still runs is safe.
func outcomeFrom(e *core.Engine, sup *waitgraph.Supervisor, res appkit.Result) TrialOutcome {
	out := TrialOutcome{Result: res, Stats: e.SnapshotAll(), Incidents: e.IncidentCounts()}
	if sup != nil {
		out.Cycles = sup.Reports()
	}
	for _, s := range out.Stats {
		out.BPWait += s.TotalWait
	}
	return out
}

// trialSupervisor starts the per-trial wait-graph supervisor. Every
// trial gets one: a confirmed application deadlock classifies the trial
// as a stall in milliseconds instead of waiting out the app's own stall
// deadline (or the per-trial wall clock), and a confirmed postponement
// stall is healed through the engine's shared forced-release path.
func trialSupervisor(e *core.Engine) *waitgraph.Supervisor {
	sup := waitgraph.New(e, waitgraph.Config{})
	sup.Start()
	return sup
}

// confirmedStall builds the early-exit result for a wait-graph deadlock
// confirmation, naming the cycle in the detail.
func confirmedStall(sup *waitgraph.Supervisor, elapsed time.Duration) appkit.Result {
	detail := "wait-graph deadlock confirmed"
	for _, r := range sup.Reports() {
		if r.Kind == waitgraph.ReportDeadlock {
			detail = "wait-graph deadlock confirmed: " + r.Desc
			break
		}
	}
	return appkit.Result{Status: appkit.Stall, Detail: detail, Elapsed: elapsed}
}

// RunTrial executes one trial of the spec on a fresh engine with no
// deadline. The trial body runs on its own goroutine WITHOUT a recover
// wrapper: a panicking trial still crashes the worker process (the
// campaign supervisor's WorkerCrash classification depends on that),
// while the calling goroutine stays free to classify a confirmed
// deadlock early instead of blocking forever on the wedged trial.
func RunTrial(spec TrialSpec) TrialOutcome {
	e := trialEngine(spec)
	sup := trialSupervisor(e)
	defer sup.Stop()
	start := time.Now()
	done := make(chan appkit.Result, 1)
	go func() { done <- spec.Run(e, spec.Breakpoint, spec.Timeout) }()
	select {
	case res := <-done:
		return outcomeFrom(e, sup, res)
	case <-sup.Confirmed():
		return outcomeFrom(e, sup, confirmedStall(sup, time.Since(start)))
	}
}

// RunTrialCtx executes one trial with a hard per-trial wall-clock
// deadline (0 = unbounded) and context cancellation. The trial runs on
// its own goroutine; if the deadline expires or ctx is cancelled first,
// the goroutine is abandoned — exactly how appkit.RunWithDeadline
// detects stalls — and the trial reports appkit.TrialTimeout with
// best-effort engine snapshots, so a RunFunc that hangs cannot block
// Measure forever. A wait-graph deadlock confirmation short-circuits
// the same way, but as an application Stall carrying the cycle
// diagnosis.
func RunTrialCtx(ctx context.Context, deadline time.Duration, spec TrialSpec) TrialOutcome {
	e := trialEngine(spec)
	sup := trialSupervisor(e)
	defer sup.Stop()
	start := time.Now()
	done := make(chan appkit.Result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- appkit.Result{Status: appkit.Exception, Detail: fmt.Sprint(p), Elapsed: time.Since(start)}
			}
		}()
		done <- spec.Run(e, spec.Breakpoint, spec.Timeout)
	}()
	var expire <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		expire = t.C
	}
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	var res appkit.Result
	select {
	case res = <-done:
	case <-sup.Confirmed():
		res = confirmedStall(sup, time.Since(start))
	case <-expire:
		res = appkit.Result{Status: appkit.TrialTimeout,
			Detail: fmt.Sprintf("trial exceeded %s deadline", deadline), Elapsed: deadline}
	case <-cancelled:
		res = appkit.Result{Status: appkit.TrialTimeout,
			Detail: "trial cancelled: " + ctx.Err().Error(), Elapsed: time.Since(start)}
	}
	return outcomeFrom(e, sup, res)
}

// TrialSeed derives the deterministic per-trial seed from the campaign
// seed and the trial's address, so trial N of a spec draws the same
// jitter stream whether it runs in-process, in a worker, first time or
// on a -resume.
func TrialSeed(campaignSeed int64, key TrialKey, trial int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", key, trial)
	return campaignSeed ^ int64(h.Sum64())
}

// Runner executes one measurement configuration (all of spec.Runs
// trials) and aggregates it. Table generators take a Runner so the same
// rendering code serves the classic in-process path and the supervised
// subprocess campaigns of internal/campaign.
type Runner func(spec TrialSpec) Measurement

// InProcess returns the default Runner: trials execute in this process,
// each bounded by the per-trial deadline (0 = unbounded). A non-zero
// seed reseeds the appkit jitter stream with each trial's TrialSeed, so
// an in-process run is trial-for-trial comparable with a supervised
// campaign using the same seed.
func InProcess(ctx context.Context, deadline time.Duration, seed int64) Runner {
	return func(spec TrialSpec) Measurement {
		outs := make([]TrialOutcome, 0, spec.Runs)
		for i := 0; i < spec.Runs; i++ {
			if ctx != nil && ctx.Err() != nil {
				break
			}
			if seed != 0 {
				appkit.SeedJitter(TrialSeed(seed, spec.Key, i))
			}
			outs = append(outs, RunTrialCtx(ctx, deadline, spec))
		}
		return Aggregate(outs)
	}
}
