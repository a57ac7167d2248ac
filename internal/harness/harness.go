// Package harness runs the paper's experiments: it executes benchmark
// applications repeatedly, with and without their concurrent
// breakpoints, and aggregates the measurements the evaluation section
// reports — reproduction probability, runtime overhead, breakpoint hit
// rate, and mean time to error (MTTE).
//
// The table generators (Table1, Table2, Log4jTable, PauseSweep,
// PrecisionAblation, ModelTable) produce the same rows/series as the
// paper's Tables 1 and 2, the section 5 resolve-order table, and the
// section 6.2/6.3 studies, so `cmd/cbtables` can regenerate each
// artifact.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
)

// RunFunc executes one application run on the given engine. breakpoint
// selects whether the app's concurrent breakpoints are inserted; timeout
// is the pause time T.
type RunFunc func(e *core.Engine, breakpoint bool, timeout time.Duration) appkit.Result

// Measurement aggregates repeated runs of one configuration.
type Measurement struct {
	// Runs is how many trials the measurement covers, including trials
	// that never produced an application result.
	Runs int
	// Completed counts trials that produced an application result
	// (infrastructure failures — timed-out or crashed trials — are
	// excluded, so rates stay honest when a campaign degrades).
	Completed int
	Buggy     int // completed runs where the bug manifested
	BPHits    int // completed runs where a breakpoint was hit
	// InfraFailures counts trials lost to the harness itself: killed at
	// the per-trial deadline or dead workers, after retries.
	InfraFailures int
	Statuses      map[appkit.Status]int
	MeanTime      time.Duration // mean wall-clock of completed runs
	MedianTime    time.Duration
	// MeanTimeToError is the mean elapsed time of the buggy runs only
	// (the paper's MTTE).
	MeanTimeToError time.Duration
	// MeanBPWait is the mean per-run total time goroutines spent
	// postponed at breakpoints — the overhead the section 6.3
	// refinements cut.
	MeanBPWait time.Duration
	// Quarantined marks a configuration a campaign supervisor gave up
	// on after K consecutive worker failures; the counters above cover
	// only the trials that ran before quarantine.
	Quarantined bool
}

// Probability returns the fraction of completed runs in which the bug
// manifested.
func (m Measurement) Probability() float64 {
	if m.Completed == 0 {
		return 0
	}
	return float64(m.Buggy) / float64(m.Completed)
}

// HitRate returns the fraction of completed runs in which a breakpoint
// was hit.
func (m Measurement) HitRate() float64 {
	if m.Completed == 0 {
		return 0
	}
	return float64(m.BPHits) / float64(m.Completed)
}

// Partial reports whether the measurement is missing trials — the
// configuration was quarantined or some trials were lost to
// infrastructure failures — so tables can mark the row instead of
// presenting degraded data as complete.
func (m Measurement) Partial() bool {
	return m.Quarantined || m.Completed < m.Runs
}

// Aggregate folds per-trial outcomes into a Measurement. It is the
// single aggregation path shared by the in-process Measure and the
// campaign supervisor's journal replay, which is what makes a resumed
// campaign's tables byte-identical to an uninterrupted run's.
func Aggregate(outs []TrialOutcome) Measurement {
	m := Measurement{Runs: len(outs), Statuses: make(map[appkit.Status]int)}
	var total, errTotal, waitTotal time.Duration
	times := make([]time.Duration, 0, len(outs))
	for _, o := range outs {
		m.Statuses[o.Result.Status]++
		if o.Result.Status.Infrastructure() {
			m.InfraFailures++
			continue
		}
		m.Completed++
		if o.Result.Status.Buggy() {
			m.Buggy++
			errTotal += o.Result.Elapsed
		}
		if o.Result.BPHit {
			m.BPHits++
		}
		waitTotal += o.BPWait
		total += o.Result.Elapsed
		times = append(times, o.Result.Elapsed)
	}
	if m.Completed > 0 {
		m.MeanTime = total / time.Duration(m.Completed)
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		m.MedianTime = times[len(times)/2]
		m.MeanBPWait = waitTotal / time.Duration(m.Completed)
	}
	if m.Buggy > 0 {
		m.MeanTimeToError = errTotal / time.Duration(m.Buggy)
	}
	return m
}

// Measure runs fn `runs` times with fresh engines and aggregates. Each
// trial executes in the calling goroutine with no deadline; use a
// Runner from InProcess with a deadline when a hung RunFunc must not
// hang the caller.
func Measure(runs int, breakpoint bool, timeout time.Duration, fn RunFunc) Measurement {
	outs := make([]TrialOutcome, 0, runs)
	for i := 0; i < runs; i++ {
		outs = append(outs, RunTrial(TrialSpec{Breakpoint: breakpoint, Timeout: timeout, Run: fn}))
	}
	return Aggregate(outs)
}

// DominantError returns the most frequent buggy status label, or "".
func (m Measurement) DominantError() string {
	best, bestN := "", 0
	for s, n := range m.Statuses {
		if s.Buggy() && n > bestN {
			best, bestN = s.String(), n
		}
	}
	return best
}

// Overhead returns the percentage runtime increase of with relative to
// without.
func Overhead(without, with time.Duration) float64 {
	if without <= 0 {
		return 0
	}
	return 100 * (float64(with) - float64(without)) / float64(without)
}

// Table is a rendered result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Render formats the table with aligned columns.
func (t Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quotes around cells that
// need them), for piping table output into analysis tools.
func (t Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Headers)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// fmtDur renders a duration in seconds with millisecond precision.
func fmtDur(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// fmtPct renders a percentage.
func fmtPct(p float64) string { return fmt.Sprintf("%.0f%%", p) }

// fmtProb renders a probability like the paper (two decimals).
func fmtProb(p float64) string { return fmt.Sprintf("%.2f", p) }
