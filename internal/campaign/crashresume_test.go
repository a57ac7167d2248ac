package campaign

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"cbreak/internal/harness"
	"cbreak/internal/journal"
)

// The kill-anywhere campaign harness re-execs this test binary as a
// throwaway campaign process (TestMain diverts into killHelperMain when
// the env var is set), SIGKILLs it mid-flight via ChaosKillDispatch,
// and resumes from its checkpoint in the test process.
const (
	killHelperEnvDir  = "CB_CAMPAIGN_KILL_HELPER_DIR"
	killHelperEnvAt   = "CB_CAMPAIGN_KILL_HELPER_AT"
	killHelperEnvSeed = "CB_CAMPAIGN_KILL_HELPER_SEED"
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(killHelperEnvDir); dir != "" {
		killHelperMain(dir)
		return
	}
	os.Exit(m.Run())
}

// killSpecs is the fixed mini-campaign the crash harness runs: two
// configurations, four trials each, eight dispatches total.
func killSpecs() []harness.TrialSpec {
	return []harness.TrialSpec{
		{Key: harness.TrialKey{Table: "t2", Row: 0, Variant: "with"}, Runs: 4},
		{Key: harness.TrialKey{Table: "t2", Row: 1, Variant: "with"}, Runs: 4},
	}
}

// runKillCampaign runs the mini-campaign (fresh or resumed) with the
// synthetic executor and returns one Measurement per spec. counting, if
// non-nil, receives the number of trials actually executed.
func runKillCampaign(cpPath string, seed int64, resume bool, killAt int, counting *int) ([]harness.Measurement, error) {
	cp, err := OpenOptions(cpPath, seed, resume, journal.SyncEachRecord)
	if err != nil {
		return nil, err
	}
	defer cp.Close()
	exec := SyntheticExecutor()
	var mu sync.Mutex
	counted := func(ctx context.Context, req WorkerRequest) (harness.TrialOutcome, error) {
		mu.Lock()
		if counting != nil {
			*counting++
		}
		mu.Unlock()
		return exec(ctx, req)
	}
	sup, err := New(Config{
		Execute:           counted,
		Checkpoint:        cp,
		Seed:              seed,
		ChaosKillDispatch: killAt,
		sleep:             func(time.Duration) {},
	})
	if err != nil {
		return nil, err
	}
	runner := sup.Runner()
	var ms []harness.Measurement
	for _, spec := range killSpecs() {
		ms = append(ms, runner(spec))
	}
	return ms, nil
}

// killHelperMain is the child-process body: run the campaign and let
// ChaosKillDispatch SIGKILL us somewhere in the middle.
func killHelperMain(dir string) {
	killAt, _ := strconv.Atoi(os.Getenv(killHelperEnvAt))
	seed, _ := strconv.ParseInt(os.Getenv(killHelperEnvSeed), 10, 64)
	if _, err := runKillCampaign(dir, seed, false, killAt, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestCampaignKillAnywhereResume is the campaign half of the issue's
// recovery invariant: SIGKILL the campaign process at EVERY dispatch
// ordinal, resume from the checkpoint journal, and require (a) the
// resumed campaign re-runs only the trials the crash lost, and (b) the
// final measurements are identical to an uncrashed control run.
func TestCampaignKillAnywhereResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary per dispatch ordinal")
	}
	const seed = 424242
	const totalTrials = 8

	controlDir := t.TempDir() + "/control"
	control, err := runKillCampaign(controlDir, seed, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	for killAt := 1; killAt <= totalTrials; killAt++ {
		t.Run(fmt.Sprintf("kill-at-dispatch-%d", killAt), func(t *testing.T) {
			dir := t.TempDir() + "/cp"
			cmd := exec.Command(os.Args[0], "-test.run=TestMain")
			cmd.Env = append(os.Environ(),
				killHelperEnvDir+"="+dir,
				killHelperEnvAt+"="+strconv.Itoa(killAt),
				killHelperEnvSeed+"="+strconv.FormatInt(seed, 10),
			)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("helper survived its own SIGKILL (output: %s)", out)
			}
			if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() == 1 {
				t.Fatalf("helper failed before the kill: %v: %s", err, out)
			}

			// The kill fires before dispatch killAt executes, so exactly
			// killAt-1 trials are journaled; resume runs the rest.
			ran := 0
			resumed, err := runKillCampaign(dir, seed, true, 0, &ran)
			if err != nil {
				t.Fatalf("resume after kill at %d: %v", killAt, err)
			}
			if want := totalTrials - (killAt - 1); ran != want {
				t.Fatalf("resume ran %d trials, want %d (crash lost only in-flight work)", ran, want)
			}
			if !reflect.DeepEqual(resumed, control) {
				t.Fatalf("resumed measurements diverge from uncrashed control:\n got %+v\nwant %+v", resumed, control)
			}
		})
	}
}
