package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/harness"
	"cbreak/internal/proc"
)

// WorkerRequest is the supervisor → worker message: the address of one
// trial plus its deterministic seed. It travels as a single JSON object
// on the worker's stdin; the worker answers with one JSON-encoded
// harness.TrialOutcome line on stdout and exit code 0. Any other exit,
// or an unparsable reply, is classified as a worker crash.
type WorkerRequest struct {
	Key   harness.TrialKey `json:"key"`
	Trial int              `json:"trial"`
	Seed  int64            `json:"seed"`
	// Chaos, when non-empty, asks the worker to misbehave for the
	// supervisor's own failure-path testing ("crash" = exit immediately
	// without reporting). Subprocess workers receive it via ChaosEnv.
	Chaos string `json:"chaos,omitempty"`
}

// ChaosEnv is the environment variable carrying WorkerRequest.Chaos to
// subprocess workers; cmd/cbtables' worker mode honours it before
// running the trial.
const ChaosEnv = "CB_CAMPAIGN_CHAOS"

// ChaosCrash makes the worker exit(3) before reporting.
const ChaosCrash = "crash"

// serveResolve resolves keys for ServeTrial; a package variable so the
// protocol round-trip is testable with synthetic (race-clean) specs.
var serveResolve Resolver = harness.ResolveSpec

// ServeTrial is the worker-process side of the protocol: decode one
// WorkerRequest from r, resolve and execute the trial in this process,
// and encode the TrialOutcome to w. The per-trial deadline is NOT
// enforced here — the supervisor owns it and enforces it by killing
// the process, which is the whole point of subprocess isolation.
func ServeTrial(r io.Reader, w io.Writer) error {
	var req WorkerRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return fmt.Errorf("campaign worker: decode request: %w", err)
	}
	spec, ok := serveResolve(req.Key)
	if !ok {
		return fmt.Errorf("campaign worker: unknown trial key %s", req.Key)
	}
	appkit.SeedJitter(req.Seed)
	out := harness.RunTrial(spec)
	return json.NewEncoder(w).Encode(out)
}

// Executor runs one trial attempt to completion. The supervisor
// enforces the per-trial deadline by cancelling ctx; implementations
// must return promptly once ctx is done (the subprocess executor kills
// the child). A non-nil error, or an Infrastructure() outcome, is an
// infrastructure failure eligible for retry.
type Executor func(ctx context.Context, req WorkerRequest) (harness.TrialOutcome, error)

// SubprocessExecutor returns an Executor that runs each trial in a
// child process: `bin args...` (typically the current binary re-exec'd
// with -trial-worker). The request goes to the child's stdin, the
// reply is the last line of its stdout, and ctx cancellation kills the
// child — a deadlocked trial dies at the deadline instead of wedging
// the campaign.
func SubprocessExecutor(bin string, args ...string) Executor {
	return func(ctx context.Context, req WorkerRequest) (harness.TrialOutcome, error) {
		reqJSON, err := json.Marshal(req)
		if err != nil {
			return harness.TrialOutcome{}, err
		}
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Stdin = bytes.NewReader(reqJSON)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		// Reap the whole worker tree, always: the worker runs in its own
		// process group and the deadline kill targets the group, so
		// grandchildren die with it; on Linux the parent-death signal
		// additionally reaps workers whose supervisor was SIGKILLed and
		// never ran this cancel at all (see internal/proc).
		cmd.SysProcAttr = proc.WorkerAttr()
		cmd.Cancel = func() error { return proc.KillTree(cmd) }
		cmd.Env = os.Environ()
		if req.Chaos != "" {
			cmd.Env = append(cmd.Env, ChaosEnv+"="+req.Chaos)
		}
		// If the child ignores the kill long enough to matter, give up
		// on collecting its output rather than blocking the pool slot.
		cmd.WaitDelay = 2 * time.Second
		if err := cmd.Run(); err != nil {
			detail := stderr.String()
			if len(detail) > 256 {
				detail = detail[:256] + "..."
			}
			return harness.TrialOutcome{}, fmt.Errorf("worker %s: %w: %s", req.Key, err, detail)
		}
		line := lastLine(stdout.Bytes())
		var out harness.TrialOutcome
		if err := json.Unmarshal(line, &out); err != nil {
			return harness.TrialOutcome{}, fmt.Errorf("worker %s: unparsable report %q: %w", req.Key, line, err)
		}
		return out, nil
	}
}

// lastLine returns the final non-empty line of b, so a worker that
// incidentally writes to stdout before its report still parses.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// Resolver maps a trial key to its runnable spec; tests substitute
// synthetic specs, production uses harness.ResolveSpec.
type Resolver func(key harness.TrialKey) (harness.TrialSpec, bool)
