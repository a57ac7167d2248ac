package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/harness"
	"cbreak/internal/journal"
)

// wedgedSpec returns a spec whose trial deadlocks deterministically: a
// one-sided arrival postponed for an hour never returns within the
// test, so only the supervisor's deadline can end the trial.
func wedgedSpec(key harness.TrialKey, runs int) harness.TrialSpec {
	return harness.TrialSpec{
		Key: key, Label: "wedged", Runs: runs, Breakpoint: true, Timeout: 5 * time.Millisecond,
		Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			e.Breakpoint("wedge.bp").Trigger(core.NewConflictTrigger("wedge.bp", &struct{}{}), true, core.Options{Timeout: time.Hour})
			return appkit.Result{Status: appkit.OK}
		},
	}
}

func resolverFor(spec harness.TrialSpec) Resolver {
	return func(k harness.TrialKey) (harness.TrialSpec, bool) { return spec, k == spec.Key }
}

func TestDeadlockedTrialKilledRetriedAndQuarantined(t *testing.T) {
	key := harness.TrialKey{Table: "test", Row: 0, Variant: "with"}
	spec := wedgedSpec(key, 5)
	var mu sync.Mutex
	var delays []time.Duration
	sup, err := New(Config{
		Execute:         inProcessExecutor(resolverFor(spec)),
		Seed:            42,
		Deadline:        40 * time.Millisecond,
		Retries:         1,
		Backoff:         80 * time.Millisecond,
		QuarantineAfter: 2,
		sleep: func(d time.Duration) {
			mu.Lock()
			delays = append(delays, d)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := sup.Runner()(spec)

	if !m.Quarantined || !m.Partial() {
		t.Fatalf("expected quarantined partial measurement, got %+v", m)
	}
	// Quarantine after 2 consecutive failed trials: exactly 2 trials ran
	// (each killed at the deadline on both attempts), 3 never dispatched.
	if m.Runs != 5 || m.Completed != 0 || m.InfraFailures != 2 {
		t.Fatalf("runs/completed/infra = %d/%d/%d, want 5/0/2", m.Runs, m.Completed, m.InfraFailures)
	}
	if m.Statuses[appkit.TrialTimeout] != 2 {
		t.Fatalf("statuses = %v, want 2 trial timeouts", m.Statuses)
	}
	// One retry per trial, each with jittered backoff in [base/2, base].
	if len(delays) != 2 {
		t.Fatalf("backoff delays = %v, want 2", delays)
	}
	for _, d := range delays {
		if d < 40*time.Millisecond || d > 80*time.Millisecond {
			t.Fatalf("backoff %v outside jitter window [40ms, 80ms]", d)
		}
	}
	if q := sup.Quarantined(); len(q) != 1 || q[0] != key {
		t.Fatalf("Quarantined() = %v", q)
	}
}

func TestCrashRetriedThenSucceeds(t *testing.T) {
	key := harness.TrialKey{Table: "test", Row: 1, Variant: "with"}
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cp, err := OpenOptions(path, 1, false, journal.SyncEachRecord)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := map[int]int{}
	exec := func(ctx context.Context, req WorkerRequest) (harness.TrialOutcome, error) {
		mu.Lock()
		calls[req.Trial]++
		n := calls[req.Trial]
		mu.Unlock()
		if n == 1 {
			return harness.TrialOutcome{}, errors.New("injected worker crash")
		}
		return harness.TrialOutcome{Result: appkit.Result{
			Status: appkit.TestFail, Elapsed: time.Millisecond, BPHit: true}}, nil
	}
	sup, err := New(Config{Execute: exec, Checkpoint: cp, Seed: 1,
		Retries: 2, QuarantineAfter: 3, sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	m := sup.Runner()(harness.TrialSpec{Key: key, Runs: 3})
	if m.Completed != 3 || m.Buggy != 3 || m.Quarantined || m.Partial() {
		t.Fatalf("measurement = %+v", m)
	}
	// Every trial crashed once and succeeded on retry: the journal must
	// say attempts=2, and per-attempt failures must not feed quarantine.
	for i := 0; i < 3; i++ {
		rec, ok := cp.Lookup(key, i)
		if !ok || rec.Attempts != 2 {
			t.Fatalf("trial %d record = %+v ok=%v, want attempts=2", i, rec, ok)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
}

// deterministicExecutor derives every outcome purely from the per-trial
// seed, so two campaigns with the same seed produce identical results —
// the property checkpoint/resume must preserve.
func deterministicExecutor(invocations *int, mu *sync.Mutex, cancelAfter int, cancel context.CancelFunc) Executor {
	return func(ctx context.Context, req WorkerRequest) (harness.TrialOutcome, error) {
		mu.Lock()
		*invocations++
		n := *invocations
		mu.Unlock()
		if cancelAfter > 0 && n > cancelAfter {
			cancel()
			return harness.TrialOutcome{}, ctx.Err()
		}
		st := appkit.OK
		if req.Seed%3 == 0 {
			st = appkit.TestFail
		}
		return harness.TrialOutcome{
			Result: appkit.Result{Status: st, BPHit: st != appkit.OK,
				Elapsed: time.Duration(uint64(req.Seed)%1000) * time.Microsecond},
			BPWait: time.Duration(uint64(req.Seed) % 500),
		}, nil
	}
}

func TestCheckpointResumeSkipsCompletedAndMatchesUninterrupted(t *testing.T) {
	key := harness.TrialKey{Table: "test", Row: 2, Variant: "with"}
	spec := harness.TrialSpec{Key: key, Runs: 8}
	const seed = 99
	var mu sync.Mutex

	runCampaign := func(path string, resume bool, cancelAfter int) (harness.Measurement, int, int) {
		cp, err := OpenOptions(path, seed, resume, journal.SyncEachRecord)
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		invocations := 0
		sup, err := New(Config{Context: ctx, Checkpoint: cp, Seed: seed,
			Execute: deterministicExecutor(&invocations, &mu, cancelAfter, cancel),
			sleep:   func(time.Duration) {}})
		if err != nil {
			t.Fatal(err)
		}
		m := sup.Runner()(spec)
		return m, invocations, cp.Len()
	}

	// Reference: one uninterrupted campaign.
	full, fullCalls, _ := runCampaign(filepath.Join(t.TempDir(), "full.jsonl"), false, 0)
	if fullCalls != 8 || full.Completed != 8 {
		t.Fatalf("uninterrupted: calls=%d m=%+v", fullCalls, full)
	}

	// Interrupted run: campaign cancelled during trial 4. The three
	// completed trials are journaled; the in-flight one must not be.
	interrupted := filepath.Join(t.TempDir(), "interrupted.jsonl")
	_, calls1, journaled := runCampaign(interrupted, false, 3)
	if calls1 != 4 || journaled != 3 {
		t.Fatalf("interrupted: calls=%d journaled=%d, want 4 and 3", calls1, journaled)
	}

	// Resume: only the 5 missing trials run, and the aggregate is
	// identical to the uninterrupted campaign's.
	resumed, calls2, journaled2 := runCampaign(interrupted, true, 0)
	if calls2 != 5 {
		t.Fatalf("resume re-ran %d trials, want 5", calls2)
	}
	if journaled2 != 8 {
		t.Fatalf("resumed journal has %d records, want 8", journaled2)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("resumed measurement differs from uninterrupted:\nfull:    %+v\nresumed: %+v", full, resumed)
	}
	if fmt.Sprintf("%+v", full) != fmt.Sprintf("%+v", resumed) {
		t.Fatal("rendered aggregates differ")
	}
}

func TestChaosCrashDispatchInjectsExactlyOnce(t *testing.T) {
	key := harness.TrialKey{Table: "test", Row: 3, Variant: "with"}
	var mu sync.Mutex
	var chaosSeen int
	exec := func(ctx context.Context, req WorkerRequest) (harness.TrialOutcome, error) {
		if req.Chaos == ChaosCrash {
			mu.Lock()
			chaosSeen++
			mu.Unlock()
			return harness.TrialOutcome{}, errors.New("chaos crash")
		}
		return harness.TrialOutcome{Result: appkit.Result{Status: appkit.OK, Elapsed: time.Millisecond}}, nil
	}
	sup, err := New(Config{Execute: exec, Seed: 5, ChaosCrashDispatch: 2,
		Retries: 2, sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	m := sup.Runner()(harness.TrialSpec{Key: key, Runs: 4})
	if chaosSeen != 1 {
		t.Fatalf("chaos injected %d times, want 1", chaosSeen)
	}
	// The crashed dispatch was retried: the campaign still completes.
	if m.Completed != 4 || m.Quarantined {
		t.Fatalf("measurement = %+v", m)
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	sup, err := New(Config{Execute: inProcessExecutor(nil), Seed: 1,
		Backoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := sup.backoff(7, 0), sup.backoff(7, 0); a != b {
		t.Fatalf("backoff not deterministic: %v vs %v", a, b)
	}
	for attempt := 0; attempt < 10; attempt++ {
		d := sup.backoff(7, attempt)
		if d < 5*time.Millisecond || d > 40*time.Millisecond {
			t.Fatalf("attempt %d backoff %v outside [5ms, 40ms]", attempt, d)
		}
	}
}
