package harness

import (
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/apps/mysql"
	"cbreak/internal/core"
	"cbreak/internal/waitgraph"
)

func TestRunTrialCtxDeadlineAbandonsHungTrial(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	spec := TrialSpec{
		Key: TrialKey{Table: "test", Row: 0, Variant: VariantWith},
		Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			<-hang
			return appkit.Result{Status: appkit.OK}
		},
	}
	start := time.Now()
	out := RunTrialCtx(context.Background(), 30*time.Millisecond, spec)
	if out.Result.Status != appkit.TrialTimeout {
		t.Fatalf("status = %v, want TrialTimeout", out.Result.Status)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

func TestRunTrialCtxCancellation(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := RunTrialCtx(ctx, 0, TrialSpec{
		Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			<-hang
			return appkit.Result{Status: appkit.OK}
		},
	})
	if out.Result.Status != appkit.TrialTimeout {
		t.Fatalf("status = %v, want TrialTimeout on cancellation", out.Result.Status)
	}
}

func TestMeasureCtxDeadlineProducesPartialMeasurement(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	var calls atomic.Int32
	m := InProcess(context.Background(), 20*time.Millisecond, 0)(TrialSpec{Runs: 3, Breakpoint: true, Timeout: time.Millisecond,
		Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			if calls.Add(1) == 2 {
				<-hang // trial 2 hangs; the deadline must rescue Measure
			}
			return appkit.Result{Status: appkit.TestFail, Elapsed: time.Millisecond, BPHit: true}
		}})
	if m.Completed != 2 || m.InfraFailures != 1 {
		t.Fatalf("completed/infra = %d/%d, want 2/1 (m=%+v)", m.Completed, m.InfraFailures, m)
	}
	if m.Statuses[appkit.TrialTimeout] != 1 {
		t.Fatalf("statuses = %v", m.Statuses)
	}
	if !m.Partial() {
		t.Fatal("a measurement with a timed-out trial must report Partial")
	}
}

func TestAggregateExcludesInfrastructureFailures(t *testing.T) {
	outs := []TrialOutcome{
		{Result: appkit.Result{Status: appkit.TestFail, Elapsed: 10 * time.Millisecond, BPHit: true}, BPWait: time.Millisecond},
		{Result: appkit.Result{Status: appkit.TrialTimeout, Elapsed: time.Hour}},
		{Result: appkit.Result{Status: appkit.WorkerCrash}},
		{Result: appkit.Result{Status: appkit.OK, Elapsed: 20 * time.Millisecond}},
	}
	m := Aggregate(outs)
	if m.Runs != 4 || m.Completed != 2 || m.InfraFailures != 2 {
		t.Fatalf("runs/completed/infra = %d/%d/%d", m.Runs, m.Completed, m.InfraFailures)
	}
	if m.Buggy != 1 {
		t.Fatalf("buggy = %d, want 1 (infra failures are not bugs)", m.Buggy)
	}
	// The hour-long "elapsed" of the killed trial must not pollute timing.
	if m.MeanTime != 15*time.Millisecond {
		t.Fatalf("mean time = %v, want 15ms over completed trials only", m.MeanTime)
	}
	if m.Probability() != 0.5 || m.HitRate() != 0.5 {
		t.Fatalf("probability/hitrate = %v/%v, want 0.5/0.5", m.Probability(), m.HitRate())
	}
	if !m.Partial() {
		t.Fatal("want Partial: 2 of 4 scheduled trials completed")
	}
}

// TestRunTrialHandleStatsFlow pins that breakpoints exercised through
// the handle API (core.Engine.Breakpoint) land in the trial outcome's
// stats snapshots exactly like string-keyed arrivals do.
func TestRunTrialHandleStatsFlow(t *testing.T) {
	spec := TrialSpec{
		Key:        TrialKey{Table: "test", Row: 1, Variant: VariantWith},
		Breakpoint: true,
		Timeout:    2 * time.Second,
		Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			h := e.Breakpoint("h.trial")
			obj := new(int)
			done := make(chan bool, 1)
			go func() {
				done <- h.Trigger(core.NewConflictTrigger("h.trial", obj), false, core.Options{Timeout: to})
			}()
			hit := h.Trigger(core.NewConflictTrigger("h.trial", obj), true, core.Options{Timeout: to})
			return appkit.Result{Status: appkit.OK, BPHit: hit && <-done}
		},
	}
	out := RunTrial(spec)
	if !out.Result.BPHit {
		t.Fatal("handle rendezvous missed inside trial")
	}
	var snap *core.StatsSnapshot
	for i := range out.Stats {
		if out.Stats[i].Name == "h.trial" {
			snap = &out.Stats[i]
		}
	}
	if snap == nil {
		t.Fatalf("handle-registered breakpoint absent from outcome stats: %+v", out.Stats)
	}
	if snap.Hits != 1 || snap.Arrivals != 2 {
		t.Fatalf("outcome stats hits/arrivals = %d/%d, want 1/2", snap.Hits, snap.Arrivals)
	}
}

func TestTrialSeedDeterministicAndDistinct(t *testing.T) {
	k1 := TrialKey{Table: "1", Row: 0, Variant: VariantWith}
	k2 := TrialKey{Table: "1", Row: 0, Variant: VariantBase}
	if TrialSeed(7, k1, 3) != TrialSeed(7, k1, 3) {
		t.Fatal("TrialSeed not deterministic")
	}
	seen := map[int64]string{}
	for _, k := range []TrialKey{k1, k2} {
		for trial := 0; trial < 10; trial++ {
			s := TrialSeed(7, k, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s#%d and %s", k, trial, prev)
			}
			seen[s] = k.String()
		}
	}
	if TrialSeed(7, k1, 0) == TrialSeed(8, k1, 0) {
		t.Fatal("campaign seed does not influence trial seed")
	}
}

func TestResolveSpecRoundTripsAllTables(t *testing.T) {
	for _, table := range []string{"1", "2", "log4j", "pause", "precision", "model"} {
		specs := TableSpecs(table, 1)
		if len(specs) == 0 {
			t.Fatalf("table %s has no specs", table)
		}
		for _, spec := range specs {
			got, ok := ResolveSpec(spec.Key)
			if !ok {
				t.Fatalf("ResolveSpec(%s) not found", spec.Key)
			}
			if got.Key != spec.Key || got.Label != spec.Label ||
				got.Breakpoint != spec.Breakpoint || got.Timeout != spec.Timeout {
				t.Fatalf("ResolveSpec(%s) = %+v, want %+v", spec.Key, got, spec)
			}
			if got.Run == nil {
				t.Fatalf("ResolveSpec(%s) has no Run", spec.Key)
			}
		}
	}
	if _, ok := ResolveSpec(TrialKey{Table: "nope", Row: 0, Variant: VariantWith}); ok {
		t.Fatal("unknown table resolved")
	}
}

func TestTableSpecsKeysAreUnique(t *testing.T) {
	seen := map[TrialKey]bool{}
	for _, table := range []string{"1", "2", "log4j", "pause", "precision", "model"} {
		for _, spec := range TableSpecs(table, 1) {
			if seen[spec.Key] {
				t.Fatalf("duplicate trial key %s", spec.Key)
			}
			seen[spec.Key] = true
			if spec.Key.Table != table {
				t.Fatalf("spec key %s filed under table %s", spec.Key, table)
			}
		}
	}
}

func TestQuarantinedRowRendersPartialMarker(t *testing.T) {
	// A fake Runner quarantines every "with" variant; the rendered rows
	// must carry the explicit partial-data marker.
	run := func(spec TrialSpec) Measurement {
		m := Measurement{Runs: spec.Runs}
		if spec.Key.Variant == VariantWith {
			m.Quarantined = true
			m.InfraFailures = spec.Runs
			m.Statuses = map[appkit.Status]int{appkit.WorkerCrash: spec.Runs}
		} else {
			m.Completed = spec.Runs
			m.MeanTime = time.Millisecond
			m.Statuses = map[appkit.Status]int{appkit.OK: spec.Runs}
		}
		return m
	}
	tbl := Table1(2, run)
	text := tbl.Render()
	if !strings.Contains(text, "(partial)") {
		t.Fatalf("quarantined rows missing partial marker:\n%s", text)
	}
}

// The per-trial wait-graph supervisor must classify a confirmed
// application deadlock in milliseconds — long before the app's own
// stall deadline or the per-trial wall clock — and the journaled
// outcome must carry the cycle diagnosis through a JSON round-trip.
func TestRunTrialCtxConfirmsDeadlockEarly(t *testing.T) {
	spec := TrialSpec{
		Key:        TrialKey{Table: "test", Row: 0, Variant: VariantWith},
		Label:      "mysql/deadlock",
		Breakpoint: true,
		Timeout:    2 * time.Second,
		Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			// A 30s in-app stall deadline: only the wait-graph
			// confirmation can classify this trial quickly.
			return mysql.Run(mysql.Config{Engine: e, Bug: mysql.Deadlock,
				Breakpoint: bp, Timeout: to, StallAfter: 30 * time.Second})
		},
	}
	start := time.Now()
	out := RunTrialCtx(context.Background(), 60*time.Second, spec)
	elapsed := time.Since(start)
	if out.Result.Status != appkit.Stall {
		t.Fatalf("status = %v (%s), want Stall", out.Result.Status, out.Result.Detail)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadlock classification took %v", elapsed)
	}
	if !strings.Contains(out.Result.Detail, "wait-graph deadlock confirmed") {
		t.Fatalf("detail = %q", out.Result.Detail)
	}
	var cycle *waitgraph.Report
	for i := range out.Cycles {
		if out.Cycles[i].Kind == waitgraph.ReportDeadlock {
			cycle = &out.Cycles[i]
		}
	}
	if cycle == nil {
		t.Fatalf("no deadlock cycle in outcome: %+v", out.Cycles)
	}
	joined := strings.Join(cycle.Locks, ",")
	if !strings.Contains(joined, "mysql.binlog") || !strings.Contains(joined, "mysql.catalog") {
		t.Fatalf("cycle locks = %v", cycle.Locks)
	}

	blob, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back TrialOutcome
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cycles) != len(out.Cycles) || back.Cycles[0].Desc != out.Cycles[0].Desc {
		t.Fatalf("cycles did not survive the JSON round-trip: %+v", back.Cycles)
	}
}
