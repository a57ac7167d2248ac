package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/harness"
)

// TestServeTrialRoundTrip exercises the worker side of the protocol
// end to end with a synthetic (race-clean) spec: request JSON in,
// outcome JSON out.
func TestServeTrialRoundTrip(t *testing.T) {
	old := serveResolve
	defer func() { serveResolve = old }()
	key := harness.TrialKey{Table: "test", Row: 0, Variant: "base"}
	serveResolve = func(k harness.TrialKey) (harness.TrialSpec, bool) {
		if k != key {
			return harness.TrialSpec{}, false
		}
		return harness.TrialSpec{
			Key: k, Breakpoint: true,
			Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
				// Arm one breakpoint (single arrival, times out) so the
				// outcome carries real engine stats.
				e.Breakpoint("rt.bp").Trigger(core.NewConflictTrigger("rt.bp", &struct{}{}), true,
					core.Options{Timeout: time.Millisecond})
				return appkit.Result{Status: appkit.TestFail, Detail: "assert", Elapsed: 5 * time.Millisecond, BPHit: bp}
			},
		}, true
	}

	req, err := json.Marshal(WorkerRequest{Key: key, Trial: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := ServeTrial(bytes.NewReader(req), &out); err != nil {
		t.Fatal(err)
	}
	var got harness.TrialOutcome
	if err := json.Unmarshal(lastLine(out.Bytes()), &got); err != nil {
		t.Fatalf("worker report unparsable: %v\n%s", err, out.String())
	}
	if got.Result.Status != appkit.TestFail || got.Result.Detail != "assert" {
		t.Fatalf("round-tripped outcome = %+v", got.Result)
	}
	// The worker snapshots the fresh engine it ran the trial on.
	if len(got.Stats) == 0 {
		t.Fatalf("outcome missing engine stats snapshots: %+v", got)
	}
}

func TestServeTrialUnknownKey(t *testing.T) {
	old := serveResolve
	defer func() { serveResolve = old }()
	serveResolve = func(harness.TrialKey) (harness.TrialSpec, bool) { return harness.TrialSpec{}, false }
	req, _ := json.Marshal(WorkerRequest{Key: harness.TrialKey{Table: "nope"}})
	err := ServeTrial(bytes.NewReader(req), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "unknown trial key") {
		t.Fatalf("err = %v, want unknown trial key", err)
	}
}

func TestLastLine(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"one", "one"},
		{"one\n", "one"},
		{"noise\nreport", "report"},
		{"noise\nreport\n\n", "report"},
	}
	for _, c := range cases {
		if got := string(lastLine([]byte(c.in))); got != c.want {
			t.Fatalf("lastLine(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// The subprocess executor tests fake the worker with /bin/sh so they
// stay race-clean and independent of the cbtables binary.

func TestSubprocessExecutorParsesLastReportLine(t *testing.T) {
	want := harness.TrialOutcome{
		Result: appkit.Result{Status: appkit.Stall, Detail: "lost wakeup", Elapsed: time.Millisecond, BPHit: true},
		BPWait: 42,
	}
	report, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	ex := SubprocessExecutor("/bin/sh", "-c",
		"cat >/dev/null; echo 'incidental stdout noise'; echo '"+string(report)+"'")
	got, err := ex(context.Background(), WorkerRequest{Key: harness.TrialKey{Table: "test"}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Result != want.Result || got.BPWait != want.BPWait {
		t.Fatalf("parsed outcome = %+v, want %+v", got, want)
	}
}

func TestSubprocessExecutorCrashIsError(t *testing.T) {
	ex := SubprocessExecutor("/bin/sh", "-c", "echo doomed >&2; exit 3")
	_, err := ex(context.Background(), WorkerRequest{Key: harness.TrialKey{Table: "test"}})
	if err == nil {
		t.Fatal("crashing worker should be an error")
	}
	if !strings.Contains(err.Error(), "doomed") {
		t.Fatalf("error should carry worker stderr: %v", err)
	}
}

func TestSubprocessExecutorKilledAtDeadline(t *testing.T) {
	ex := SubprocessExecutor("/bin/sh", "-c", "sleep 30")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ex(ctx, WorkerRequest{Key: harness.TrialKey{Table: "test"}})
	if err == nil {
		t.Fatal("hung worker should be an error after the deadline kill")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("kill took %v; the deadline did not terminate the worker", elapsed)
	}
}

func TestInProcessExecutorChaosCrash(t *testing.T) {
	ex := inProcessExecutor(func(harness.TrialKey) (harness.TrialSpec, bool) {
		t.Fatal("chaos crash must not reach the resolver")
		return harness.TrialSpec{}, false
	})
	_, err := ex(context.Background(), WorkerRequest{Chaos: ChaosCrash})
	if err == nil || !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("err = %v", err)
	}
}

// inProcessExecutor returns an Executor that runs trials in this
// process (no isolation: a crashing trial takes the supervisor with
// it). It honours ctx via goroutine abandonment, so deadlines still
// hold for deadlocked — if not crashing — trials. A nil resolver uses
// harness.ResolveSpec. Chaos "crash" becomes a synthetic error.
func inProcessExecutor(resolve Resolver) Executor {
	if resolve == nil {
		resolve = harness.ResolveSpec
	}
	return func(ctx context.Context, req WorkerRequest) (harness.TrialOutcome, error) {
		if req.Chaos == ChaosCrash {
			return harness.TrialOutcome{}, fmt.Errorf("worker %s: injected crash", req.Key)
		}
		spec, ok := resolve(req.Key)
		if !ok {
			return harness.TrialOutcome{}, fmt.Errorf("unknown trial key %s", req.Key)
		}
		appkit.SeedJitter(req.Seed)
		return harness.RunTrialCtx(ctx, 0, spec), nil
	}
}
