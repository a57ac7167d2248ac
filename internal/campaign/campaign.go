// Package campaign supervises experiment campaigns: long sequences of
// harness trials over intentionally buggy concurrent programs. The
// engine (internal/core) is hardened against misbehaving breakpoints;
// this package hardens the layer that drives it, because the paper's
// evaluation tables only mean something when every scheduled trial is
// accounted for:
//
//   - worker isolation: each trial runs in a child process (re-exec of
//     the current binary in -trial-worker mode), so a crashing
//     reproduction cannot take the campaign down with it.
//   - deadlines: a hard per-trial wall-clock budget, enforced by
//     killing the worker — the deadlock benchmarks *exist to
//     deadlock*, and must not wedge the run.
//   - classification: "bug manifested" (any application verdict,
//     including OK) is distinguished from "worker crashed/hung"
//     (appkit.TrialTimeout / appkit.WorkerCrash); only the latter are
//     infrastructure failures.
//   - retries: infrastructure failures retry with jittered exponential
//     backoff; application verdicts never do — re-rolling the dice on
//     a probabilistic reproduction would bias the tables.
//   - checkpoint/resume: completed trials are journaled to JSONL as
//     they finish, so an interrupted campaign resumes exactly where it
//     left off and, with the same seed, renders byte-identical rows.
//   - quarantine: after K consecutive infrastructure failures a
//     configuration is abandoned and its row rendered with an explicit
//     partial-data marker, instead of aborting the whole campaign.
package campaign

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/harness"
)

// Config parameterizes a Supervisor. Zero fields take the defaults
// noted on each.
type Config struct {
	// Context cancels the whole campaign (SIGINT plumbs in here).
	// Trials interrupted by cancellation are NOT journaled, so a resume
	// re-runs them.
	Context context.Context
	// Execute runs one trial attempt (required).
	Execute Executor
	// Checkpoint, when non-nil, journals completed trials and supplies
	// already-completed ones on resume.
	Checkpoint *Checkpoint
	// Seed derives every per-trial seed and the retry jitter.
	Seed int64
	// Deadline is the per-trial wall-clock budget (default 30s).
	Deadline time.Duration
	// Retries is how many times one trial is re-attempted after an
	// infrastructure failure (default 2; application verdicts are
	// final on the first attempt).
	Retries int
	// Backoff is the base retry delay, doubled per attempt with
	// deterministic jitter (default 100ms, capped at MaxBackoff).
	Backoff time.Duration
	// MaxBackoff caps the backoff growth (default 5s).
	MaxBackoff time.Duration
	// QuarantineAfter is K: consecutive infrastructure failures (after
	// retries) before a configuration is quarantined (default 3).
	QuarantineAfter int
	// Parallel bounds concurrently running trials (default 1).
	Parallel int
	// ChaosCrashDispatch, when > 0, injects a crash into that global
	// dispatch ordinal's attempt (1-based) — the CI smoke campaign uses
	// it to prove a crashing trial cannot sink a run.
	ChaosCrashDispatch int
	// ChaosKillDispatch, when > 0, SIGKILLs the supervisor's OWN
	// process at that global dispatch ordinal (1-based) — no deferred
	// cleanup, no checkpoint close, nothing. The crash-recovery harness
	// uses it to prove the kill-anywhere invariant: a campaign killed
	// at any dispatch resumes from its checkpoint journal and renders
	// byte-identical results.
	ChaosKillDispatch int
	// Log receives human-readable progress and incident lines (nil =
	// silent).
	Log io.Writer

	// sleep is the backoff clock, overridable in tests.
	sleep func(time.Duration)
}

// Supervisor drives trials through the Executor under the Config's
// policies and exposes a harness.Runner for the table generators.
type Supervisor struct {
	cfg Config
	ctx context.Context
	sem chan struct{}

	mu          sync.Mutex
	dispatched  int // global attempt ordinal, for chaos injection
	quarantined []harness.TrialKey
}

// New validates cfg, applies defaults, and returns a Supervisor.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Execute == nil {
		return nil, fmt.Errorf("campaign: Config.Execute is required")
	}
	if cfg.Context == nil {
		cfg.Context = context.Background()
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}
	if cfg.sleep == nil {
		cfg.sleep = time.Sleep
	}
	return &Supervisor{cfg: cfg, ctx: cfg.Context, sem: make(chan struct{}, cfg.Parallel)}, nil
}

// Quarantined returns the configurations this supervisor abandoned
// after K consecutive worker failures, in quarantine order.
func (s *Supervisor) Quarantined() []harness.TrialKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]harness.TrialKey(nil), s.quarantined...)
}

// Interrupted reports whether the campaign's context was cancelled.
func (s *Supervisor) Interrupted() bool { return s.ctx.Err() != nil }

// Runner returns the harness.Runner the table generators should use:
// each measurement configuration's trials run through the supervisor's
// pool, deadline, retry, journal, and quarantine machinery.
func (s *Supervisor) Runner() harness.Runner { return s.measure }

func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// measure runs all of spec.Runs trials of one configuration.
func (s *Supervisor) measure(spec harness.TrialSpec) harness.Measurement {
	type slot struct {
		out harness.TrialOutcome
		ran bool
	}
	slots := make([]slot, spec.Runs)
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		consecFails int
		quarantined bool
	)
	// noteOutcome updates the consecutive-failure counter; trials
	// resolve in completion order, which is what "consecutive" means
	// under a parallel pool.
	noteOutcome := func(out harness.TrialOutcome) {
		if out.Result.Status.Infrastructure() {
			consecFails++
			if !quarantined && consecFails >= s.cfg.QuarantineAfter {
				quarantined = true
				s.mu.Lock()
				s.quarantined = append(s.quarantined, spec.Key)
				s.mu.Unlock()
				s.logf("campaign: quarantining %s (%s) after %d consecutive worker failures",
					spec.Key, spec.Label, consecFails)
			}
		} else {
			consecFails = 0
		}
	}
	for i := 0; i < spec.Runs; i++ {
		if s.ctx.Err() != nil {
			break
		}
		mu.Lock()
		stop := quarantined
		mu.Unlock()
		if stop {
			break
		}
		if rec, ok := s.cfg.Checkpoint.Lookup(spec.Key, i); ok {
			mu.Lock()
			slots[i] = slot{rec.Outcome, true}
			noteOutcome(rec.Outcome)
			mu.Unlock()
			continue
		}
		acquired := false
		select {
		case s.sem <- struct{}{}:
			acquired = true
		case <-s.ctx.Done():
		}
		if !acquired {
			break
		}
		// Quarantine may have triggered while this trial waited for a
		// slot; re-check so nothing is dispatched past the cutoff.
		mu.Lock()
		stop = quarantined
		mu.Unlock()
		if stop {
			<-s.sem
			break
		}
		wg.Add(1)
		go func(trial int) {
			defer wg.Done()
			defer func() { <-s.sem }()
			out, attempts, aborted := s.runTrial(spec, trial)
			if aborted {
				return // cancelled: leave unjournaled so resume re-runs it
			}
			mu.Lock()
			slots[trial] = slot{out, true}
			noteOutcome(out)
			mu.Unlock()
			// Publish on the supervisor's process-wide telemetry bus with
			// the real retry count; the worker's own harness-level publish
			// happened in the subprocess, on a different bus.
			harness.PublishOutcome(spec.Key, out, attempts)
			rec := Record{Key: spec.Key, Trial: trial,
				Seed: harness.TrialSeed(s.cfg.Seed, spec.Key, trial), Attempts: attempts, Outcome: out}
			if err := s.cfg.Checkpoint.Append(rec); err != nil {
				s.logf("campaign: checkpoint write failed for %s#%d: %v", spec.Key, trial, err)
			}
		}(i)
	}
	wg.Wait()
	outs := make([]harness.TrialOutcome, 0, spec.Runs)
	for _, sl := range slots {
		if sl.ran {
			outs = append(outs, sl.out)
		}
	}
	m := harness.Aggregate(outs)
	m.Runs = spec.Runs
	m.Quarantined = quarantined
	return m
}

// runTrial executes one trial with the retry policy: infrastructure
// failures (deadline kills, worker crashes) are retried with jittered
// exponential backoff up to Retries times; an application verdict —
// buggy or OK — is final immediately. aborted means the campaign was
// cancelled mid-trial and nothing should be recorded.
func (s *Supervisor) runTrial(spec harness.TrialSpec, trial int) (out harness.TrialOutcome, attempts int, aborted bool) {
	seed := harness.TrialSeed(s.cfg.Seed, spec.Key, trial)
	req := WorkerRequest{Key: spec.Key, Trial: trial, Seed: seed}
	for attempt := 0; ; attempt++ {
		attempts++
		if s.ctx.Err() != nil {
			return out, attempts, true
		}
		req.Chaos = ""
		n := s.nextDispatch()
		if s.cfg.ChaosCrashDispatch > 0 && n == s.cfg.ChaosCrashDispatch {
			req.Chaos = ChaosCrash
			s.logf("campaign: injecting %s chaos into %s#%d (dispatch %d)", ChaosCrash, spec.Key, trial, n)
		}
		if s.cfg.ChaosKillDispatch > 0 && n == s.cfg.ChaosKillDispatch {
			s.logf("campaign: SIGKILLing self at dispatch %d (%s#%d)", n, spec.Key, trial)
			killSelf()
		}
		tctx, cancel := context.WithTimeout(s.ctx, s.cfg.Deadline)
		got, err := s.cfg.Execute(tctx, req)
		deadlineHit := tctx.Err() == context.DeadlineExceeded
		cancel()
		if s.ctx.Err() != nil {
			return out, attempts, true
		}
		switch {
		case err == nil && !got.Result.Status.Infrastructure():
			return got, attempts, false
		case err == nil:
			// The executor itself classified the failure (in-process
			// deadline abandonment reports TrialTimeout).
			out = got
		case deadlineHit:
			out = harness.TrialOutcome{Result: appkit.Result{
				Status:  appkit.TrialTimeout,
				Detail:  fmt.Sprintf("worker killed at %s deadline", s.cfg.Deadline),
				Elapsed: s.cfg.Deadline,
			}}
		default:
			out = harness.TrialOutcome{Result: appkit.Result{
				Status: appkit.WorkerCrash,
				Detail: err.Error(),
			}}
		}
		if attempt >= s.cfg.Retries {
			s.logf("campaign: %s#%d failed permanently after %d attempts: %s",
				spec.Key, trial, attempts, out.Result.Detail)
			return out, attempts, false
		}
		delay := s.backoff(seed, attempt)
		s.logf("campaign: %s#%d attempt %d failed (%s); retrying in %s",
			spec.Key, trial, attempts, out.Result.Status, delay)
		s.cfg.sleep(delay)
	}
}

// nextDispatch increments and returns the global 1-based attempt
// ordinal, the coordinate chaos injection addresses.
func (s *Supervisor) nextDispatch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dispatched++
	return s.dispatched
}

// backoff returns the jittered exponential delay for the given retry
// attempt (0-based): Config.Backoff doubled per attempt, capped at
// MaxBackoff, jittered to [d/2, d] by the appkit stream derived from
// (trial seed, attempt).
// The same splitmix64 stream that seeds trial workloads seeds the
// retry timing, so a -resume of a seeded campaign replays identical
// backoff delays — pure in (seed, attempt), no process-global RNG.
func (s *Supervisor) backoff(trialSeed int64, attempt int) time.Duration {
	return appkit.DeriveStream(trialSeed, int64(attempt)).Backoff(s.cfg.Backoff, s.cfg.MaxBackoff, attempt)
}
