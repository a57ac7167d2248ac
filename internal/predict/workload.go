package predict

import (
	"fmt"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/apps/mysql"
	"cbreak/internal/core"
	"cbreak/internal/memory"
)

// This file holds the mysql recording and verification workloads the
// cbpredict pipeline drives. The racy workload exercises the server's
// inconsistent LSN locking: the locked-commit path assigns mysql.lsn
// while holding mysql.catalog, the plain INSERT path assigns it with
// no lock held. Run back to back (commit first, then insert), the
// observed interleaving orders the two writes through the catalog's
// release→acquire edge — FastTrack sees no race — but the insert's
// catalog section (the table lookup) touches no shared cell, so the
// prediction closure drops that edge and reports the pair as racy in a
// reordering. The verification workload then proves the reordering is
// real by arming the compiled trigger and rendezvousing both writes.

// RecordRacyMySQL records the locked-commit vs plain-INSERT workload
// into a trace journal at dir and returns the recorded event count.
func RecordRacyMySQL(dir string) (int, error) {
	rec, err := NewRecorder(dir)
	if err != nil {
		return 0, err
	}
	srv := newTracedServer(rec)
	srv.CreateTable("t1")

	// The commit runs first and completes before the insert starts, but
	// the ordering handshake is an untraced channel: both goroutines are
	// forked before either runs and joined after both finish, so the only
	// recorded ordering between the two LSN writes flows through the
	// catalog lock — the edge the predictor is entitled to discount.
	ready := make(chan struct{})
	commit := ForkTraced(rec, func() {
		srv.LockedCommit("c1")
		close(ready)
	})
	insert := ForkTraced(rec, func() {
		<-ready
		srv.Exec(1, "INSERT INTO t1 VALUES ('a')")
	})
	commit.Join()
	insert.Join()

	n := int(rec.seq)
	if err := rec.Close(); err != nil {
		return n, err
	}
	return n, nil
}

// RecordSyncedMySQL records the sync-ordered control workload: both
// goroutines assign LSNs through the locked commit path, so every pair
// of critical sections over the catalog lock conflicts on mysql.lsn
// and the prediction closure keeps their ordering — no race may be
// predicted from this trace.
func RecordSyncedMySQL(dir string) (int, error) {
	rec, err := NewRecorder(dir)
	if err != nil {
		return 0, err
	}
	srv := newTracedServer(rec)
	srv.CreateTable("t1")

	// Same untraced-channel sequencing as the racy workload, so the two
	// runs differ only in which code path assigns the second LSN.
	ready := make(chan struct{})
	first := ForkTraced(rec, func() {
		srv.LockedCommit("s1")
		close(ready)
	})
	second := ForkTraced(rec, func() {
		<-ready
		srv.LockedCommit("s2")
	})
	first.Join()
	second.Join()

	n := int(rec.seq)
	if err := rec.Close(); err != nil {
		return n, err
	}
	return n, nil
}

// newTracedServer builds a mysql server whose cells live in a traced
// space and whose catalog/binlog locks report to the recorder.
func newTracedServer(rec *Recorder) *mysql.Server {
	cfg := &mysql.Config{Space: memory.NewSpace()}
	srv := mysql.NewServer(cfg)
	rec.Instrument(cfg.Space, srv.Mutexes()...)
	return srv
}

// VerifyOutcome is one armed verification run's result.
type VerifyOutcome struct {
	// Hits is the total trigger-fired count across plans.
	Hits int64
	// Fired maps breakpoint name to hit count.
	Fired map[string]int64
	// Result classifies the run for campaign records: OK with
	// BPHit=true when a manufactured trigger fired.
	Result appkit.Result
	// Stats are the engine's per-breakpoint counters at run end (they
	// ride into campaign checkpoints).
	Stats []core.StatsSnapshot
}

// VerifyMySQL re-runs the racy workload with the plans armed on a
// fresh server: the plain INSERT goroutine starts first (so its table
// lookup clears the catalog before the commit path locks it), reaches
// its LSN write, and postpones; the locked commit then reaches its own
// LSN write and the ConflictTrigger rendezvouses — both goroutines
// paused at the predicted racy pair, trigger fired.
func VerifyMySQL(e *core.Engine, plans []TriggerPlan) VerifyOutcome {
	armer := NewArmer(e, plans)
	cfg := &mysql.Config{Engine: e, Space: memory.NewSpace()}
	srv := mysql.NewServer(cfg)
	cfg.Space.Trace(armer)
	srv.CreateTable("t1")

	deadline := 30 * time.Second
	res := appkit.RunWithDeadline(deadline, func() appkit.Result {
		done := make(chan error, 2)
		go func() {
			_, err := srv.Exec(1, "INSERT INTO t1 VALUES ('v')")
			done <- err
		}()
		go func() {
			time.Sleep(time.Millisecond)
			srv.LockedCommit("v")
			done <- nil
		}()
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				return appkit.Result{Status: appkit.TestFail, Detail: err.Error()}
			}
		}
		return appkit.Result{Status: appkit.OK}
	})

	out := VerifyOutcome{Fired: armer.Fired(), Stats: e.SnapshotAll(), Result: res}
	out.Hits = armer.TotalHits()
	out.Result.BPHit = out.Hits > 0
	if out.Result.Status == appkit.OK && out.Hits > 0 {
		out.Result.Detail = fmt.Sprintf("manufactured trigger fired %d time(s)", out.Hits)
	}
	return out
}
