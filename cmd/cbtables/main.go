// Command cbtables regenerates the paper's evaluation artifacts from the
// Go reproduction: Table 1 (Java benchmarks), Table 2 (C/C++ analogs),
// the section 5 log4j resolve-order table, the section 6.2 pause sweep,
// the section 6.3 precision ablation, and the section 3 / Figure 4 model
// comparison.
//
// Usage:
//
//	cbtables -table all -runs 20
//	cbtables -table log4j -runs 100
//	cbtables -table 1 -runs 100   # the paper used 100 runs per row
//
// Supervised campaigns (-json) run every trial in a killable child
// process with deadlines, retries, a crash-safe checkpoint journal, and
// quarantine, so one deadlocked or crashing reproduction cannot wedge
// the run — and a killed run loses nothing:
//
//	cbtables -table 1 -runs 100 -json -seed 7 -parallel 4
//	cbtables -table 1 -runs 100 -json -seed 7 -resume   # after ANY death
//
// The checkpoint is a write-ahead journal directory (-checkpoint); with
// the default -checkpoint-sync=record every finished trial is fsynced
// before the campaign moves on, so -resume recovers everything up to a
// SIGKILL or power cut (docs/USAGE.md, "Durability & crash recovery").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/campaign"
	"cbreak/internal/core"
	"cbreak/internal/harness"
	"cbreak/internal/journal"
	"cbreak/internal/journal/sink"
)

// durableEventsEnv carries the -durable-events directory to trial
// worker subprocesses; each worker journals its engines' events and
// incidents into its own pid-named subdirectory (journals are
// single-writer).
const durableEventsEnv = "CB_DURABLE_EVENTS"

func main() {
	table := flag.String("table", "all", "which artifact to regenerate: 1, 2, log4j, pause, precision, model, netload, all")
	runs := flag.Int("runs", 10, "runs per configuration (the paper used 100)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	seed := flag.Int64("seed", 1, "campaign seed: derives each trial's workload jitter and the retry backoff, so runs reproduce run-to-run")
	deadline := flag.Duration("deadline", 30*time.Second, "hard per-trial wall-clock deadline; hung trials are killed and counted as 'trial timeout'")
	jsonMode := flag.Bool("json", false, "run as a supervised campaign: subprocess-isolated trials journaled to the -checkpoint journal")
	resume := flag.Bool("resume", false, "resume the -checkpoint journal, skipping completed trials (requires the same -seed it was written with)")
	checkpoint := flag.String("checkpoint", "cbtables-campaign.ckpt", "checkpoint journal directory for supervised campaigns")
	checkpointSync := flag.String("checkpoint-sync", "record", "checkpoint durability: record (fsync per trial), interval (group commit), none")
	parallel := flag.Int("parallel", 1, "concurrently running trial workers in supervised campaigns")
	retries := flag.Int("retries", 2, "retries per trial for infrastructure failures (worker crash/timeout), with jittered exponential backoff")
	quarantineAfter := flag.Int("quarantine-after", 3, "consecutive worker failures before a configuration is quarantined and its row marked partial")
	chaosCrash := flag.Int("chaos-crash", 0, "inject a worker crash into the Nth trial dispatch (1-based); CI uses this to prove campaigns survive crashing trials")
	chaosKill := flag.Int("chaos-kill-dispatch", 0, "SIGKILL this process at the Nth trial dispatch (1-based); the CI crash-recovery smoke proves -resume recovers from it")
	synthetic := flag.Bool("synthetic-trials", false, "derive every trial outcome deterministically from its seed instead of executing it (campaign-machinery testing; output depends only on -seed)")
	durableEvents := flag.String("durable-events", "", "journal every engine event and guard incident under this directory for post-mortem recovery (one journal per process)")
	trialWorker := flag.Bool("trial-worker", false, "internal: run one trial from a JSON request on stdin and report on stdout")
	flag.Parse()

	if *trialWorker {
		os.Exit(workerMain())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	render := func(t harness.Table) string {
		if *csv {
			return t.CSV()
		}
		return t.Render()
	}

	if *durableEvents != "" {
		// Tee engine events/incidents to disk: in-process trials journal
		// here, worker subprocesses into their own subdirectories via the
		// environment (inherited through SubprocessExecutor).
		os.Setenv(durableEventsEnv, *durableEvents)
		s, err := openDurableSink(*durableEvents)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cbtables: %v\n", err)
			os.Exit(1)
		}
		defer s.Close()
	}

	var run harness.Runner
	var sup *campaign.Supervisor
	var cp *campaign.Checkpoint
	if *jsonMode || *resume {
		pol, err := journal.ParseSyncPolicy(*checkpointSync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cbtables: -checkpoint-sync: %v\n", err)
			os.Exit(2)
		}
		bin, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cbtables: cannot locate own binary for worker re-exec: %v\n", err)
			os.Exit(1)
		}
		cp, err = campaign.OpenOptions(*checkpoint, *seed, *resume, pol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cbtables: %v\n", err)
			os.Exit(1)
		}
		defer cp.Close()
		if rec := cp.Recovery(); rec.TruncatedBytes > 0 {
			fmt.Fprintf(os.Stderr, "cbtables: checkpoint recovery truncated a torn tail: %d byte(s) of %s (%s); that trial will re-run\n",
				rec.TruncatedBytes, rec.TornSegment, rec.TornReason)
		}
		if *resume && cp.Len() > 0 {
			fmt.Fprintf(os.Stderr, "cbtables: resuming %s: %d trials already journaled\n", *checkpoint, cp.Len())
		}
		if *retries == 0 {
			*retries = -1 // flag 0 means "no retries"; Config 0 means default
		}
		execute := campaign.SubprocessExecutor(bin, "-trial-worker")
		if *synthetic {
			execute = campaign.SyntheticExecutor()
		}
		sup, err = campaign.New(campaign.Config{
			Context:            ctx,
			Execute:            execute,
			Checkpoint:         cp,
			Seed:               *seed,
			Deadline:           *deadline,
			Retries:            *retries,
			QuarantineAfter:    *quarantineAfter,
			Parallel:           *parallel,
			ChaosCrashDispatch: *chaosCrash,
			ChaosKillDispatch:  *chaosKill,
			Log:                os.Stderr,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cbtables: %v\n", err)
			os.Exit(1)
		}
		run = sup.Runner()
	} else {
		run = harness.InProcess(ctx, *deadline, *seed)
	}

	start := time.Now()
	appkit.SeedJitter(*seed)
	switch *table {
	case "1":
		fmt.Print(render(harness.Table1(*runs, run)))
	case "2":
		fmt.Print(render(harness.Table2(*runs, run)))
	case "log4j":
		fmt.Print(render(harness.Log4jTable(*runs, run)))
	case "pause":
		fmt.Print(render(harness.PauseSweep(*runs, run)))
	case "precision":
		fmt.Print(render(harness.PrecisionAblation(*runs, run)))
	case "model":
		fmt.Print(render(harness.ModelTable(20000, *runs, run)))
	case "netload":
		fmt.Print(render(harness.NetLoadTable(*runs, run)))
	case "all":
		fmt.Print(render(harness.Table1(*runs, run)))
		fmt.Println()
		fmt.Print(render(harness.Table2(*runs, run)))
		fmt.Println()
		fmt.Print(render(harness.Log4jTable(*runs, run)))
		fmt.Println()
		fmt.Print(render(harness.PauseSweep(*runs, run)))
		fmt.Println()
		fmt.Print(render(harness.PrecisionAblation(*runs, run)))
		fmt.Println()
		fmt.Print(render(harness.ModelTable(20000, *runs, run)))
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("\n(%d runs per configuration, %.1fs total)\n", *runs, time.Since(start).Seconds())
	if sup != nil {
		if q := sup.Quarantined(); len(q) > 0 {
			fmt.Fprintf(os.Stderr, "cbtables: %d configuration(s) quarantined after repeated worker failures:\n", len(q))
			for _, k := range q {
				fmt.Fprintf(os.Stderr, "  %s\n", k)
			}
		}
		fmt.Fprintf(os.Stderr, "cbtables: %d trial record(s) journaled to %s\n", cp.Len(), *checkpoint)
		if sup.Interrupted() {
			cp.Close()
			fmt.Fprintf(os.Stderr, "cbtables: interrupted; checkpoint flushed — resume with -resume -seed %d\n", *seed)
			os.Exit(130)
		}
	}
}

// openDurableSink opens this process's event/incident journal under
// base (pid-named, so concurrent worker processes never share a
// single-writer journal) and installs it on every trial engine.
func openDurableSink(base string) (*sink.Sink, error) {
	dir := filepath.Join(base, fmt.Sprintf("proc-%d", os.Getpid()))
	s, err := sink.Open(dir, journal.SyncInterval)
	if err != nil {
		return nil, fmt.Errorf("durable events: %w", err)
	}
	harness.SetTrialEngineObserver(func(e *core.Engine, _ harness.TrialSpec) {
		e.SetDurableSink(s)
	})
	return s, nil
}

// workerMain is the hidden -trial-worker mode: execute exactly one
// trial, addressed by the JSON WorkerRequest on stdin, and report the
// TrialOutcome as one JSON line on stdout. The supervisor enforces the
// trial deadline by killing this process.
func workerMain() int {
	if os.Getenv(campaign.ChaosEnv) == campaign.ChaosCrash {
		// CI's injected infrastructure failure: die without reporting.
		return 3
	}
	if dir := os.Getenv(durableEventsEnv); dir != "" {
		s, err := openDurableSink(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trial-worker: %v\n", err)
			return 1
		}
		defer s.Close()
	}
	if err := campaign.ServeTrial(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "trial-worker: %v\n", err)
		return 1
	}
	return 0
}
