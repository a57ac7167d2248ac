package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/harness"
)

// inputs.json is the record of every workload's inputs; the repro rows
// and the probe trial are read from it, so the record and the run
// cannot drift apart.
//
//go:embed inputs.json
var inputsJSON []byte

// rowRef addresses one "with breakpoint" row of Table 1 or 2.
type rowRef struct {
	Table string `json:"table"`
	Row   int    `json:"row"`
	Label string `json:"label"`
}

type reproInputs struct {
	Rows            []rowRef `json:"rows"`
	ProbeTrial      rowRef   `json:"probe_trial"`
	TrialDeadlineMS int      `json:"trial_deadline_ms"`
}

func loadReproInputs() (reproInputs, error) {
	var in struct {
		Repro reproInputs `json:"repro"`
	}
	if err := json.Unmarshal(inputsJSON, &in); err != nil {
		return reproInputs{}, fmt.Errorf("inputs.json: %w", err)
	}
	if len(in.Repro.Rows) == 0 || in.Repro.TrialDeadlineMS <= 0 {
		return reproInputs{}, fmt.Errorf("inputs.json: repro rows or trial deadline missing")
	}
	return in.Repro, nil
}

// resolveRow finds the row's trial spec and checks that the tables
// still hold the row recorded under that address.
func resolveRow(ref rowRef) (harness.TrialSpec, error) {
	spec, ok := harness.ResolveSpec(harness.TrialKey{Table: ref.Table, Row: ref.Row, Variant: harness.VariantWith})
	if !ok {
		return spec, fmt.Errorf("table %s row %d: no such trial", ref.Table, ref.Row)
	}
	if spec.Label != ref.Label {
		return spec, fmt.Errorf("table %s row %d is %q, inputs.json records %q", ref.Table, ref.Row, spec.Label, ref.Label)
	}
	return spec, nil
}

// trialSample is one executed trial.
type trialSample struct {
	Row       int
	Start     time.Duration // since the window opened
	Wall      time.Duration // RunTrialCtx wall time
	App       time.Duration // Result.Elapsed
	Wait      time.Duration // time postponed at breakpoints
	Status    appkit.Status
	Confirmed bool // ended by the wait-graph's deadlock confirmation
	Postpones int64
}

func sampleTrial(out harness.TrialOutcome, row int, start, wall time.Duration) trialSample {
	t := trialSample{Row: row, Start: start, Wall: wall, App: out.Result.Elapsed, Wait: out.BPWait,
		Status:    out.Result.Status,
		Confirmed: strings.HasPrefix(out.Result.Detail, "wait-graph deadlock confirmed")}
	for _, s := range out.Stats {
		t.Postpones += s.Postpones
	}
	return t
}

// trialLayer sets the harness, wait-graph confirmation and rendezvous
// wait metrics from executed trials.
func trialLayer(layer map[string]float64, ts []trialSample) {
	var over, app, wait, confirm []float64
	var misses, postpones int64
	var waited time.Duration
	for _, t := range ts {
		over = append(over, ms(t.Wall-t.App))
		app = append(app, ms(t.App))
		wait = append(wait, ms(t.Wait))
		if t.Confirmed {
			confirm = append(confirm, ms(t.Wall))
		}
		if !t.Status.Buggy() {
			misses++
		}
		postpones += t.Postpones
		waited += t.Wait
	}
	layer["harness.overhead_ms"] = median(over)
	layer["harness.app_ms"] = median(app)
	layer["harness.bp_wait_ms"] = median(wait)
	layer["harness.misses"] = float64(misses)
	layer["waitgraph.confirm_ms"] = median(confirm)
	layer["core.wait_ms"] = 0
	if postpones > 0 {
		layer["core.wait_ms"] = ms(waited) / float64(postpones)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

type reproFixture struct {
	specs    []harness.TrialSpec // in the seeded order
	deadline time.Duration
}

func setupRepro(r *run) (fixture, error) {
	in, err := loadReproInputs()
	if err != nil {
		return nil, err
	}
	f := &reproFixture{deadline: time.Duration(in.TrialDeadlineMS) * time.Millisecond}
	for _, ref := range in.Rows {
		spec, err := resolveRow(ref)
		if err != nil {
			return nil, err
		}
		f.specs = append(f.specs, spec)
	}
	st := appkit.NewStream(r.seed)
	for i := len(f.specs) - 1; i > 0; i-- {
		j := st.Intn(i + 1)
		f.specs[i], f.specs[j] = f.specs[j], f.specs[i]
	}
	// Warm-up: one trial of every row, so each app's code and the
	// harness's lazy state are loaded before the window.
	for _, spec := range f.specs {
		appkit.SeedJitter(harness.TrialSeed(r.seed, spec.Key, -1))
		out := harness.RunTrialCtx(context.Background(), f.deadline, spec)
		if out.Result.Status.Infrastructure() {
			return nil, fmt.Errorf("warm-up trial %s: %s", spec.Key, out.Result)
		}
	}
	return f, nil
}

func (f *reproFixture) measure(r *run) error {
	log := newOpLog(sampleCap)
	trials := make([]trialSample, 0, 1<<14)
	var counts []core.StatsSnapshot
	deadline := r.startWindow()
	for i := 0; time.Now().Before(deadline); i++ {
		spec := f.specs[i%len(f.specs)]
		appkit.SeedJitter(harness.TrialSeed(r.seed, spec.Key, i))
		t0 := time.Now()
		id := r.beginOp(t0)
		out := harness.RunTrialCtx(context.Background(), f.deadline, spec)
		d := time.Since(t0)
		r.endOp(log, "harness.trial", id, t0, d, 1)
		trials = append(trials, sampleTrial(out, i%len(f.specs), t0.Sub(r.clk.start), d))
		counts = append(counts, out.Stats...) // a fresh engine per trial: its counts are the trial's
	}
	r.endWindow()
	r.merge(log)

	statuses := map[appkit.Status]int64{}
	for _, t := range trials {
		statuses[t.Status]++
		if t.Status.Infrastructure() {
			r.failed++
		} else if t.Status.Buggy() {
			r.good++
		}
	}
	r.attempted = int64(len(trials))
	r.check("no infrastructure status", checkTrialStatuses(statuses))
	coreLayer(r.layer, counts)
	trialLayer(r.layer, trials)
	r.details["rows"] = f.rowBreakdown(trials)
	r.details["halves"] = halves(trials, r.clk.end.Sub(r.clk.start))
	r.details["goroutines_at_end"] = runtime.NumGoroutine()
	r.details["statuses"] = statusCounts(statuses)
	return nil
}

func (f *reproFixture) close() error { return nil }

// rowBreakdown reports each row's trials, misses and median time.
func (f *reproFixture) rowBreakdown(ts []trialSample) []map[string]any {
	walls := make([][]float64, len(f.specs))
	misses := make([]int, len(f.specs))
	for _, t := range ts {
		walls[t.Row] = append(walls[t.Row], ms(t.Wall))
		if !t.Status.Buggy() {
			misses[t.Row]++
		}
	}
	out := make([]map[string]any, len(f.specs))
	for i, spec := range f.specs {
		out[i] = map[string]any{"key": spec.Key.String(), "label": spec.Label,
			"trials": len(walls[i]), "misses": misses[i], "ms_p50": median(walls[i])}
	}
	return out
}

// halves compares the first and second half of the window: deadlock
// rows leave their wedged goroutines behind by design, and the two
// medians show whether that drifts the trial time.
func halves(ts []trialSample, window time.Duration) map[string]any {
	var a, b []float64
	for _, t := range ts {
		if t.Start < window/2 {
			a = append(a, ms(t.Wall))
		} else {
			b = append(b, ms(t.Wall))
		}
	}
	return map[string]any{"first_trial_ms_p50": median(a), "first_trials": len(a),
		"second_trial_ms_p50": median(b), "second_trials": len(b)}
}

func statusCounts(m map[appkit.Status]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for s, n := range m {
		out[s.String()] = n
	}
	return out
}
