package harness

import (
	"fmt"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/apps/cache4j"
	"cbreak/internal/apps/fig4"
	"cbreak/internal/apps/hedc"
	"cbreak/internal/apps/httpd"
	"cbreak/internal/apps/jigsaw"
	"cbreak/internal/apps/log4j"
	"cbreak/internal/apps/logging"
	"cbreak/internal/apps/lucene"
	"cbreak/internal/apps/moldyn"
	"cbreak/internal/apps/montecarlo"
	"cbreak/internal/apps/mysql"
	"cbreak/internal/apps/pbzip2"
	"cbreak/internal/apps/pool"
	"cbreak/internal/apps/raytracer"
	"cbreak/internal/apps/stringbuffer"
	"cbreak/internal/apps/swing"
	"cbreak/internal/apps/synclist"
	"cbreak/internal/apps/syncmap"
	"cbreak/internal/apps/syncset"
	"cbreak/internal/core"
	"cbreak/internal/prob"
)

// Pause presets: the paper's defaults are 100ms and 1s; the harness
// scales them down so a full table fits in CI time while preserving the
// ratios that matter (pause vs workload jitter vs stall deadline).
const (
	// ShortPause is the "100 ms" analog.
	ShortPause = 50 * time.Millisecond
	// LongPause is the "1 s" analog.
	LongPause = 250 * time.Millisecond
	// StallDeadline bounds stall detection in table runs.
	StallDeadline = 600 * time.Millisecond
)

// RowSpec describes one Table 1 row.
type RowSpec struct {
	Benchmark string
	BugLabel  string
	Comments  string
	// Timeout overrides the default ShortPause when non-zero.
	Timeout time.Duration
	Run     RunFunc
}

// Table1Rows returns the specs for every Java-benchmark row of the
// paper's Table 1.
func Table1Rows() []RowSpec {
	rows := []RowSpec{
		{Benchmark: "cache4j", BugLabel: "race1", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return cache4j.Run(cache4j.Config{Engine: e, Bug: cache4j.Race1, Breakpoint: bp, Timeout: to})
		}},
		{Benchmark: "cache4j", BugLabel: "race2", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return cache4j.Run(cache4j.Config{Engine: e, Bug: cache4j.Race2, Breakpoint: bp, Timeout: to})
		}},
		{Benchmark: "cache4j", BugLabel: "race3", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return cache4j.Run(cache4j.Config{Engine: e, Bug: cache4j.Race3, Breakpoint: bp, Timeout: to})
		}},
		{Benchmark: "cache4j", BugLabel: "atomicity1", Comments: "ignoreFirst=100", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return cache4j.Run(cache4j.Config{Engine: e, Bug: cache4j.Atomicity1, Breakpoint: bp, Timeout: to, IgnoreFirst: 100})
		}},
		{Benchmark: "hedc", BugLabel: "race1", Comments: "wait=" + ShortPause.String(), Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return hedc.Run(hedc.Config{Engine: e, Bug: hedc.Race1, Breakpoint: bp, Timeout: to, Jitter: 4 * time.Millisecond})
		}},
		{Benchmark: "hedc", BugLabel: "race1", Comments: "wait=" + LongPause.String(), Timeout: LongPause, Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return hedc.Run(hedc.Config{Engine: e, Bug: hedc.Race1, Breakpoint: bp, Timeout: to, Jitter: 4 * time.Millisecond})
		}},
		{Benchmark: "hedc", BugLabel: "race2", Comments: "wait=" + LongPause.String(), Timeout: LongPause, Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return hedc.Run(hedc.Config{Engine: e, Bug: hedc.Race2, Breakpoint: bp, Timeout: to, Jitter: 4 * time.Millisecond})
		}},
		{Benchmark: "jigsaw", BugLabel: "deadlock1", Run: jigsawRun(jigsaw.Deadlock1)},
		{Benchmark: "jigsaw", BugLabel: "deadlock2", Run: jigsawRun(jigsaw.Deadlock2)},
		{Benchmark: "jigsaw", BugLabel: "missed-notify1", Comments: "Meth. II", Run: jigsawRun(jigsaw.MissedNotify)},
		{Benchmark: "jigsaw", BugLabel: "race1", Run: jigsawRun(jigsaw.Race1)},
		{Benchmark: "jigsaw", BugLabel: "race2", Run: jigsawRun(jigsaw.Race2)},
		{Benchmark: "log4j", BugLabel: "deadlock1", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return log4j.Run(log4j.Config{Engine: e, Mode: log4j.ModeDeadlock, Breakpoint: bp, Timeout: to, StallAfter: StallDeadline})
		}},
		{Benchmark: "log4j", BugLabel: "missed-notify1", Comments: "Meth. II", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return log4j.Run(log4j.Config{Engine: e, Mode: log4j.ModeContention, Pair: log4j.Pair{First: log4j.S236, Second: log4j.S309},
				Breakpoint: bp, Timeout: to, StallAfter: StallDeadline})
		}},
		{Benchmark: "logging", BugLabel: "deadlock1", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return logging.Run(logging.Config{Engine: e, Breakpoint: bp, Timeout: to, StallAfter: StallDeadline})
		}},
		{Benchmark: "lucene", BugLabel: "deadlock1", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return lucene.Run(lucene.Config{Engine: e, Breakpoint: bp, Timeout: to, StallAfter: StallDeadline})
		}},
		{Benchmark: "moldyn", BugLabel: "race1", Comments: "bound=4", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return moldyn.Run(moldyn.Config{Engine: e, Bug: moldyn.Race1, Breakpoint: bp, Timeout: to, Bound: 4})
		}},
		{Benchmark: "moldyn", BugLabel: "race2", Comments: "bound=10", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return moldyn.Run(moldyn.Config{Engine: e, Bug: moldyn.Race2, Breakpoint: bp, Timeout: to, Bound: 10})
		}},
		{Benchmark: "montecarlo", BugLabel: "race1", Comments: "bound=10", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return montecarlo.Run(montecarlo.Config{Engine: e, Breakpoint: bp, Timeout: to, Bound: 10})
		}},
		{Benchmark: "pool", BugLabel: "missed-notify1", Comments: "Meth. II", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return pool.Run(pool.Config{Engine: e, Breakpoint: bp, Timeout: to, StallAfter: StallDeadline})
		}},
		{Benchmark: "raytracer", BugLabel: "race1", Run: raytracerRun(raytracer.Race1)},
		{Benchmark: "raytracer", BugLabel: "race2", Run: raytracerRun(raytracer.Race2)},
		{Benchmark: "raytracer", BugLabel: "race3", Run: raytracerRun(raytracer.Race3)},
		{Benchmark: "raytracer", BugLabel: "race4", Run: raytracerRun(raytracer.Race4)},
		{Benchmark: "stringbuffer", BugLabel: "atomicity1", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return stringbuffer.Run(stringbuffer.Config{Engine: e, Breakpoint: bp, Timeout: to})
		}},
		{Benchmark: "swing", BugLabel: "deadlock1", Comments: "wait=" + ShortPause.String(), Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return swing.Run(swing.Config{Engine: e, Breakpoint: bp, Timeout: to, StallAfter: 2 * StallDeadline})
		}},
		{Benchmark: "swing", BugLabel: "deadlock1", Comments: "wait=" + LongPause.String(), Timeout: LongPause, Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return swing.Run(swing.Config{Engine: e, Breakpoint: bp, Timeout: to, StallAfter: 2 * StallDeadline})
		}},
		{Benchmark: "synchronizedList", BugLabel: "atomicity1", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return synclist.Run(synclist.Config{Engine: e, Bug: synclist.Atomicity, Breakpoint: bp, Timeout: to})
		}},
		{Benchmark: "synchronizedList", BugLabel: "deadlock1", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return synclist.Run(synclist.Config{Engine: e, Bug: synclist.Deadlock, Breakpoint: bp, Timeout: to, StallAfter: StallDeadline})
		}},
		{Benchmark: "synchronizedMap", BugLabel: "atomicity1", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return syncmap.Run(syncmap.Config{Engine: e, Bug: syncmap.Atomicity, Breakpoint: bp, Timeout: to})
		}},
		{Benchmark: "synchronizedMap", BugLabel: "deadlock1", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return syncmap.Run(syncmap.Config{Engine: e, Bug: syncmap.Deadlock, Breakpoint: bp, Timeout: to, StallAfter: StallDeadline})
		}},
		{Benchmark: "synchronizedSet", BugLabel: "atomicity1", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return syncset.Run(syncset.Config{Engine: e, Bug: syncset.Atomicity, Breakpoint: bp, Timeout: to})
		}},
		{Benchmark: "synchronizedSet", BugLabel: "deadlock1", Run: func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return syncset.Run(syncset.Config{Engine: e, Bug: syncset.Deadlock, Breakpoint: bp, Timeout: to, StallAfter: StallDeadline})
		}},
	}
	return rows
}

func jigsawRun(bug jigsaw.Bug) RunFunc {
	return func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
		return jigsaw.Run(jigsaw.Config{Engine: e, Bug: bug, Breakpoint: bp, Timeout: to, StallAfter: StallDeadline})
	}
}

func raytracerRun(bug raytracer.Bug) RunFunc {
	return func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
		return raytracer.Run(raytracer.Config{Engine: e, Bug: bug, Breakpoint: bp, Timeout: to, Width: 48, Height: 36})
	}
}

// partialMark appends the explicit partial-data marker to a row's first
// cell when any of its measurements is missing trials (quarantined
// configuration or infrastructure failures): degraded campaign rows
// stay in the table, but never masquerade as complete data.
func partialMark(cell string, ms ...Measurement) string {
	for _, m := range ms {
		if m.Partial() {
			return cell + " (partial)"
		}
	}
	return cell
}

// Table1 measures every row with and without breakpoints and renders the
// paper's Table 1 columns. run executes each configuration: InProcess,
// or a campaign supervisor's subprocess-isolated runner.
func Table1(runs int, run Runner) Table {
	t := Table{
		Title:   "Table 1: Java benchmark results",
		Headers: []string{"Benchmark", "Normal(s)", "w/ctr(s)", "Overhead", "Breakpoint", "Error", "Prob.", "Comments"},
	}
	specs := table1Specs(runs)
	for i, row := range Table1Rows() {
		base := run(specs[2*i])
		with := run(specs[2*i+1])
		// Stall rows report the stall-detection deadline as their
		// runtime, so an overhead percentage is meaningless — the paper
		// likewise omits runtimes for stalls ("we report the time that
		// we first detected the stall").
		overhead := fmtPct(Overhead(base.MedianTime, with.MedianTime))
		if with.DominantError() == "stall" {
			overhead = "-"
		}
		t.Rows = append(t.Rows, []string{
			partialMark(row.Benchmark, base, with),
			fmtDur(base.MedianTime),
			fmtDur(with.MedianTime),
			overhead,
			row.BugLabel,
			with.DominantError(),
			fmtProb(with.Probability()),
			row.Comments,
		})
	}
	return t
}

// Table2Rows returns the C/C++-analog specs of the paper's Table 2.
func Table2Rows() []struct {
	Benchmark string
	Error     string
	CBRs      int
	Comments  string
	Run       RunFunc
} {
	return []struct {
		Benchmark string
		Error     string
		CBRs      int
		Comments  string
		Run       RunFunc
	}{
		{"pbzip2 0.9.4", "program crash", 2, "null pointer dereference", func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return pbzip2.Run(pbzip2.Config{Engine: e, Breakpoint: bp, Timeout: to})
		}},
		{"Apache httpd 2.0.45", "log corruption", 1, "(Bug #25520)", func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return httpd.Run(httpd.Config{Engine: e, Bug: httpd.LogCorruption, Breakpoint: bp, Timeout: to})
		}},
		{"Apache httpd 2.0.45", "server crash", 3, "buffer overflow", func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return httpd.Run(httpd.Config{Engine: e, Bug: httpd.ServerCrash, Breakpoint: bp, Timeout: to})
		}},
		{"MySQL 4.0.12", "log omission", 2, "(Bug #791)", func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return mysql.Run(mysql.Config{Engine: e, Bug: mysql.LogOmission, Breakpoint: bp, Timeout: to})
		}},
		{"MySQL 3.23.56", "log disorder", 1, "(Bug #169)", func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return mysql.Run(mysql.Config{Engine: e, Bug: mysql.LogDisorder, Breakpoint: bp, Timeout: to})
		}},
		{"MySQL 4.0.19", "server crash", 3, "null pointer dereference (Bug #3596)", func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return mysql.Run(mysql.Config{Engine: e, Bug: mysql.ServerCrash, Breakpoint: bp, Timeout: to})
		}},
		// Appended after the original six: row indices are campaign
		// checkpoint keys, so new rows only ever go at the end.
		{"MySQL 4.0.x", "deadlock", 1, "FLUSH LOGS vs DML lock order", func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return mysql.Run(mysql.Config{Engine: e, Bug: mysql.Deadlock, Breakpoint: bp, Timeout: to, StallAfter: StallDeadline})
		}},
	}
}

// Table2 measures the C/C++-analog rows: error kind, MTTE, and
// breakpoint count.
func Table2(runs int, run Runner) Table {
	t := Table{
		Title:   "Table 2: C/C++ benchmark results",
		Headers: []string{"Benchmark", "Error", "MTTE(s)", "#CBR", "Reproduced", "Comments"},
	}
	specs := table2Specs(runs)
	for i, row := range Table2Rows() {
		with := run(specs[i])
		t.Rows = append(t.Rows, []string{
			partialMark(row.Benchmark, with),
			row.Error,
			fmtDur(with.MeanTimeToError),
			fmt.Sprintf("%d", row.CBRs),
			fmt.Sprintf("%d/%d", with.Buggy, with.Completed),
			row.Comments,
		})
	}
	return t
}

// Log4jTable reproduces the section 5 resolve-order table: for each of
// the eight contention resolutions, the stall rate and breakpoint hit
// rate over `runs` executions.
func Log4jTable(runs int, run Runner) Table {
	t := Table{
		Title:   "Section 5: log4j conflict resolve orders",
		Headers: []string{"Conflict resolve order", "System stall (%)", "BP hit (%)"},
	}
	specs := log4jSpecs(runs)
	for i, pair := range log4j.Section5Pairs() {
		m := run(specs[i])
		stallPct := 0.0
		if m.Completed > 0 {
			stallPct = 100 * float64(m.Statuses[appkit.Stall]) / float64(m.Completed)
		}
		t.Rows = append(t.Rows, []string{partialMark(pair.String(), m),
			fmtPct(stallPct), fmtPct(100 * m.HitRate())})
	}
	return t
}

// PauseSweep reproduces section 6.2: reproduction probability and
// runtime as the pause grows, for hedc race1 and the swing deadlock.
// Each benchmark sweeps pauses spanning its workload's jitter scale, so
// the short end misses the rendezvous sometimes (the paper's 0.87 and
// 0.63) and the long end essentially never does.
func PauseSweep(runs int, run Runner) Table {
	t := Table{
		Title:   "Section 6.2: pause time vs probability",
		Headers: []string{"Benchmark", "Pause", "Prob.", "Runtime(s)"},
	}
	specs := pauseSpecs(runs)
	for i, pt := range pauseSweepPoints() {
		m := run(specs[i])
		t.Rows = append(t.Rows, []string{
			partialMark(pt.name, m), pt.pause.String(), fmtProb(m.Probability()), fmtDur(m.MedianTime)})
	}
	return t
}

// pauseSweepPoint is one (benchmark, pause) cell of the sweep.
type pauseSweepPoint struct {
	name  string
	pause time.Duration
	run   RunFunc
}

// pauseSweepPoints flattens the sweep grid in rendering order, so
// specs.go can address each cell by row index.
func pauseSweepPoints() []pauseSweepPoint {
	grid := []struct {
		name   string
		pauses []time.Duration
		run    RunFunc
	}{
		{"hedc/race1", []time.Duration{time.Millisecond, 5 * time.Millisecond, ShortPause},
			func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
				return hedc.Run(hedc.Config{Engine: e, Bug: hedc.Race1, Breakpoint: bp, Timeout: to, Jitter: 8 * time.Millisecond})
			}},
		{"swing/deadlock1", []time.Duration{5 * time.Millisecond, 16 * time.Millisecond, ShortPause},
			func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
				return swing.Run(swing.Config{Engine: e, Breakpoint: bp, Timeout: to,
					StallAfter: 2 * StallDeadline, EventJitter: 4 * time.Millisecond})
			}},
	}
	var points []pauseSweepPoint
	for _, g := range grid {
		for _, pause := range g.pauses {
			points = append(points, pauseSweepPoint{name: g.name, pause: pause, run: g.run})
		}
	}
	return points
}

// PrecisionVariant is one configuration of the section 6.3 ablation.
type PrecisionVariant struct {
	Name       string
	Refinement string
	Run        RunFunc
}

// PrecisionVariants returns the section 6.3 configurations: each
// benchmark with and without its local-predicate refinement.
func PrecisionVariants() []PrecisionVariant {
	return []PrecisionVariant{
		{"cache4j/atomicity1", "none", func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return cache4j.Run(cache4j.Config{Engine: e, Bug: cache4j.Atomicity1, Breakpoint: bp, Timeout: to, WarmupObjects: 60})
		}},
		{"cache4j/atomicity1", "ignoreFirst=60", func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return cache4j.Run(cache4j.Config{Engine: e, Bug: cache4j.Atomicity1, Breakpoint: bp, Timeout: to, WarmupObjects: 60, IgnoreFirst: 60})
		}},
		{"moldyn/race1", "bound=100", func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return moldyn.Run(moldyn.Config{Engine: e, Bug: moldyn.Race1, Breakpoint: bp, Timeout: to, Bound: 100})
		}},
		{"moldyn/race1", "bound=4", func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return moldyn.Run(moldyn.Config{Engine: e, Bug: moldyn.Race1, Breakpoint: bp, Timeout: to, Bound: 4})
		}},
		{"swing/deadlock1", "none", func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return swing.Run(swing.Config{Engine: e, Breakpoint: bp, Timeout: to, StallAfter: 2 * StallDeadline})
		}},
		{"swing/deadlock1", "isLockTypeHeld(BasicCaret)", func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return swing.Run(swing.Config{Engine: e, Breakpoint: bp, Timeout: to, Refined: true, StallAfter: 2 * StallDeadline})
		}},
	}
}

// PrecisionAblation reproduces section 6.3: the runtime effect of the
// local-predicate refinements (ignoreFirst for cache4j, bound for
// moldyn, isLockTypeHeld for swing), with the reproduction probability
// alongside to show precision does not cost probability.
func PrecisionAblation(runs int, run Runner) Table {
	t := Table{
		Title:   "Section 6.3: precision refinements",
		Headers: []string{"Benchmark", "Refinement", "Prob.", "Runtime(s)", "BPWait(s)"},
	}
	specs := precisionSpecs(runs)
	for i, v := range PrecisionVariants() {
		m := run(specs[i])
		t.Rows = append(t.Rows, []string{partialMark(v.Name, m), v.Refinement,
			fmtProb(m.Probability()), fmtDur(m.MedianTime), fmtDur(m.MeanBPWait)})
	}
	return t
}

// ModelTable reproduces the section 3 analysis around Figure 4: the
// closed-form probabilities, their Monte Carlo validation, and the
// empirical Figure 4 program with and without its breakpoint. run
// executes the Figure 4 measurements; the closed-form and Monte Carlo
// rows are deterministic and always computed in-process.
func ModelTable(mcRuns, fig4Runs int, run Runner) Table {
	t := Table{
		Title:   "Section 3 / Figure 4: model vs measurement",
		Headers: []string{"Quantity", "Value"},
	}
	const n, mBig, m, tPause = 100000, 10, 2, 1000
	t.Rows = append(t.Rows,
		[]string{"exact base P (N=1e5, m=2)", fmt.Sprintf("%.6f", prob.ExactBase(n, m))},
		[]string{"approx base m^2/(N-m+1)", fmt.Sprintf("%.6f", prob.ApproxBase(n, m))},
		[]string{"Monte Carlo base", fmt.Sprintf("%.6f", prob.MonteCarloBase(n, m, mcRuns, 42))},
		[]string{"trigger LB (M=10, T=1000)", fmt.Sprintf("%.6f", prob.ExactTriggerLB(n, mBig, m, tPause))},
		[]string{"approx trigger m^2T/(N+MT-M)", fmt.Sprintf("%.6f", prob.ApproxTrigger(n, mBig, m, tPause))},
		[]string{"Monte Carlo trigger", fmt.Sprintf("%.6f", prob.MonteCarloTrigger(n, mBig, m, tPause, mcRuns, 42))},
		[]string{"improvement factor", fmt.Sprintf("%.1fx", prob.ImprovementFactor(n, mBig, m, tPause))},
	)
	specs := modelSpecs(fig4Runs)
	noBP := run(specs[0])
	withBP := run(specs[1])
	t.Rows = append(t.Rows,
		[]string{partialMark("Figure 4 ERROR rate, no breakpoint", noBP), fmtProb(noBP.Probability())},
		[]string{partialMark("Figure 4 ERROR rate, with breakpoint", withBP), fmtProb(withBP.Probability())},
		[]string{"Figure 4 step-model P(read<write), N=200", fmt.Sprintf("%.4f", fig4.StepProbability(200, 5, mcRuns, 7))},
	)
	return t
}
