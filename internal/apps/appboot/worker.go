package appboot

import (
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/guard/faultinject"
	"cbreak/internal/journal"
	"cbreak/internal/journal/sink"
	"cbreak/internal/waitgraph"
)

// This file is the body of an app worker process (cbserverd
// -app-worker): one engine, one app server, its own wait-graph
// supervisor, and — when configured — its own durable telemetry journal
// in a directory that survives the process. The worker prints one
// handshake line once its socket listens, then runs until SIGTERM
// (graceful drain) or until its durable journal fails (it exits so the
// supervisor can relaunch it against the recovered journal: durability
// failures are process-fatal in a worker, never silent).

// crashArmedMarker, inside the worker's journal directory, records that
// the one-shot disk-fault plan has already been armed once: the
// relaunched worker after the injected crash runs on the real
// filesystem, so a disk-fault scenario produces exactly one crash, not
// a crash loop.
const crashArmedMarker = "chaos-armed"

// WorkerConfig parameterizes one app worker process.
type WorkerConfig struct {
	// Spec is the app to host (Listen pinned by the supervisor on
	// relaunch).
	Spec
	// Seed seeds the worker's jitter stream.
	Seed int64
	// DurableDir, when set, journals engine events and guard incidents
	// under this directory. The directory outlives the process: a
	// relaunched worker appends to the recovered journal (continuity).
	DurableDir string
	// CrashAppends, with DurableDir, arms a one-shot faultinject crash
	// plan under the journal: the CrashAppends-th durability operation
	// fails, the worker exits, and the relaunch runs clean (see
	// crashArmedMarker).
	CrashAppends int
}

// RunWorker hosts one app until SIGTERM or SIGINT (returns nil) or a
// fatal condition such as a dead durable journal (returns the error;
// the process exit then tells the supervisor this incarnation crashed).
// It prints the ready handshake on stdout and its log lines on stderr.
func RunWorker(cfg WorkerConfig) error {
	appkit.SeedJitter(cfg.Seed)
	e := core.NewEngine()

	var s *sink.Sink
	if cfg.DurableDir != "" {
		opts := journal.Options{Dir: cfg.DurableDir, Sync: journal.SyncInterval}
		if cfg.CrashAppends > 0 {
			marker := filepath.Join(cfg.DurableDir, crashArmedMarker)
			if _, err := os.Stat(marker); os.IsNotExist(err) {
				// Write the marker before arming: even a crash during
				// boot must not re-arm on the next launch.
				if err := os.MkdirAll(cfg.DurableDir, 0o755); err != nil {
					return fmt.Errorf("worker: journal dir: %w", err)
				}
				if err := os.WriteFile(marker, []byte("armed\n"), 0o644); err != nil {
					return fmt.Errorf("worker: arm marker: %w", err)
				}
				opts.FS = journal.CrashFS(journal.OSFS(), faultinject.NewCrashPlan(cfg.CrashAppends))
				fmt.Fprintf(os.Stderr, "worker %s: one-shot disk fault armed at durability op %d\n", cfg.App, cfg.CrashAppends)
			}
		}
		var err error
		s, err = sink.OpenOptions(opts)
		if err != nil {
			return fmt.Errorf("worker: durable journal: %w", err)
		}
		defer s.Close()
		e.SetDurableSink(s)
	}

	sup := waitgraph.New(e, waitgraph.Config{})
	sup.Start()
	defer sup.Stop()

	app, err := StartApp(e, cfg.Spec)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	defer app.Close()
	fmt.Println(Handshake(app.Name, app.Addr))

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigs)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case sig := <-sigs:
			fmt.Fprintf(os.Stderr, "worker %s: %v, draining (served %d)\n", cfg.App, sig, app.Served())
			if s != nil {
				// Flush buffered telemetry before the teardown that
				// still produces records; Close syncs again at the end.
				if err := s.Sync(); err != nil {
					fmt.Fprintf(os.Stderr, "worker %s: drain sync: %v\n", cfg.App, err)
				}
			}
			return nil
		case <-tick.C:
			if s != nil {
				if err := s.Err(); err != nil {
					// A dead journal means telemetry is being lost:
					// crash out so the supervisor relaunches this app
					// against the recovered journal.
					app.Close()
					return fmt.Errorf("worker %s: durable journal failed: %w", cfg.App, err)
				}
			}
		}
	}
}
