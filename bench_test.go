// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus microbenchmarks of the breakpoint engine and
// ablations of its design choices. Custom metrics:
//
//	hit-prob    — fraction of iterations in which the bug manifested
//	bp-hit      — fraction of iterations in which a breakpoint was hit
//	mtte-ms     — mean time to error across buggy iterations
//	overhead-%  — runtime overhead of enabled breakpoints vs disabled
//
// Run with: go test -bench=. -benchmem
package cbreak

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/apps/fig4"
	"cbreak/internal/apps/hedc"
	"cbreak/internal/apps/log4j"
	"cbreak/internal/apps/swing"
	"cbreak/internal/core"
	"cbreak/internal/harness"
	"cbreak/internal/locks"
	"cbreak/internal/memory"
	"cbreak/internal/predict"
	"cbreak/internal/prob"
	"cbreak/internal/sched"
)

// benchRow runs one table row for b.N iterations with breakpoints
// enabled (fn may switch them off) and reports the probability metrics.
func benchRow(b *testing.B, timeout time.Duration, fn harness.RunFunc) {
	b.Helper()
	buggy, hits := 0, 0
	var errTime time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := core.NewEngine()
		res := fn(e, true, timeout)
		if res.Status.Buggy() {
			buggy++
			errTime += res.Elapsed
		}
		if res.BPHit {
			hits++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(buggy)/float64(b.N), "hit-prob")
	b.ReportMetric(float64(hits)/float64(b.N), "bp-hit")
	if buggy > 0 {
		b.ReportMetric(float64(errTime.Milliseconds())/float64(buggy), "mtte-ms")
	}
}

// BenchmarkTable1 regenerates every Java-benchmark row of Table 1: the
// per-row reproduction probability (hit-prob should be ~1.0, matching
// the paper's Prob. column) and the runtime per run.
func BenchmarkTable1(b *testing.B) {
	for _, row := range harness.Table1Rows() {
		row := row
		b.Run(table1Name(row), func(b *testing.B) {
			benchRow(b, table1Timeout(row), row.Run)
		})
	}
}

func table1Name(row harness.RowSpec) string {
	name := fmt.Sprintf("%s/%s", row.Benchmark, row.BugLabel)
	if row.Comments != "" {
		name += "/" + sanitize(row.Comments)
	}
	return name
}

func table1Timeout(row harness.RowSpec) time.Duration {
	if row.Timeout == 0 {
		return harness.ShortPause
	}
	return row.Timeout
}

// BenchmarkNoBreakpoint runs every Table 1 and Table 2 row with its
// breakpoints off, as the tables' Normal column does, so hit-prob is the
// bug's natural rate: the paper's premise needs it near 0. EXPERIMENTS.md
// records it at -benchtime 200x -cpu 1,2.
func BenchmarkNoBreakpoint(b *testing.B) {
	natural := func(run harness.RunFunc) harness.RunFunc {
		return func(e *core.Engine, _ bool, to time.Duration) appkit.Result {
			e.SetEnabled(false)
			return run(e, false, to)
		}
	}
	for _, row := range harness.Table1Rows() {
		row := row
		b.Run("table1/"+table1Name(row), func(b *testing.B) {
			benchRow(b, table1Timeout(row), natural(row.Run))
		})
	}
	for _, row := range harness.Table2Rows() {
		row := row
		b.Run("table2/"+sanitize(row.Benchmark+"/"+row.Error), func(b *testing.B) {
			benchRow(b, harness.ShortPause, natural(row.Run))
		})
	}
}

// BenchmarkTable1_Overhead measures the overhead column of Table 1 for a
// representative subset: runtime with breakpoints enabled vs disabled.
func BenchmarkTable1_Overhead(b *testing.B) {
	for _, row := range harness.Table1Rows() {
		row := row
		switch row.Benchmark {
		case "moldyn", "montecarlo", "raytracer", "stringbuffer", "cache4j":
		default:
			continue // stall rows measure deadline, not overhead
		}
		b.Run(fmt.Sprintf("%s/%s", row.Benchmark, row.BugLabel), func(b *testing.B) {
			var with, without time.Duration
			for i := 0; i < b.N; i++ {
				e := core.NewEngine()
				e.SetEnabled(false)
				start := time.Now()
				row.Run(e, false, harness.ShortPause)
				without += time.Since(start)

				e2 := core.NewEngine()
				start = time.Now()
				row.Run(e2, true, harness.ShortPause)
				with += time.Since(start)
			}
			b.ReportMetric(harness.Overhead(without, with), "overhead-%")
		})
	}
}

// BenchmarkTable2 regenerates Table 2: the C/C++-analog bugs with their
// mean time to error.
func BenchmarkTable2(b *testing.B) {
	for _, row := range harness.Table2Rows() {
		row := row
		b.Run(sanitize(row.Benchmark+"/"+row.Error), func(b *testing.B) {
			benchRow(b, harness.ShortPause, row.Run)
		})
	}
}

// BenchmarkSection5_Log4jTable regenerates the section 5 resolve-order
// table: per-order stall and hit rates.
func BenchmarkSection5_Log4jTable(b *testing.B) {
	for _, pair := range log4j.Section5Pairs() {
		pair := pair
		b.Run(sanitize(pair.String()), func(b *testing.B) {
			stalls, hits := 0, 0
			for i := 0; i < b.N; i++ {
				e := core.NewEngine()
				res := log4j.Run(log4j.Config{Engine: e, Mode: log4j.ModeContention, Pair: pair,
					Breakpoint: true, Timeout: harness.ShortPause, StallAfter: harness.StallDeadline})
				if res.Status == appkit.Stall {
					stalls++
				}
				if res.BPHit {
					hits++
				}
			}
			b.ReportMetric(float64(stalls)/float64(b.N), "stall-rate")
			b.ReportMetric(float64(hits)/float64(b.N), "bp-hit")
		})
	}
}

// BenchmarkSection62_PauseSweep regenerates the section 6.2 study: hit
// probability as a function of the pause time for hedc race1 and the
// swing deadlock.
func BenchmarkSection62_PauseSweep(b *testing.B) {
	pauses := []time.Duration{2 * time.Millisecond, 5 * time.Millisecond, harness.ShortPause}
	for _, pause := range pauses {
		pause := pause
		b.Run("hedc-race1/"+pause.String(), func(b *testing.B) {
			benchRow(b, pause, func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
				return hedc.Run(hedc.Config{Engine: e, Bug: hedc.Race1, Breakpoint: bp,
					Timeout: to, Jitter: 8 * time.Millisecond})
			})
		})
		b.Run("swing-deadlock1/"+pause.String(), func(b *testing.B) {
			benchRow(b, pause, func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
				return swing.Run(swing.Config{Engine: e, Breakpoint: bp, Timeout: to,
					StallAfter: 2 * harness.StallDeadline, EventJitter: 4 * time.Millisecond})
			})
		})
	}
}

// BenchmarkSection63_Precision regenerates the section 6.3 ablation: the
// runtime effect of the local-predicate refinements.
func BenchmarkSection63_Precision(b *testing.B) {
	for _, v := range harness.PrecisionVariants() {
		v := v
		b.Run(sanitize(v.Name+"/"+v.Refinement), func(b *testing.B) {
			benchRow(b, harness.ShortPause, v.Run)
		})
	}
}

// BenchmarkFigure4_Model regenerates the section 3 / Figure 4 numbers:
// the analytic probabilities (reported as metrics) and the empirical
// Figure 4 program with its breakpoint.
func BenchmarkFigure4_Model(b *testing.B) {
	b.Run("analytic", func(b *testing.B) {
		const n, mBig, m, tPause = 100000, 10, 2, 1000
		var base, trig, gain float64
		for i := 0; i < b.N; i++ {
			base = prob.ExactBase(n, m)
			trig = prob.ExactTriggerLB(n, mBig, m, tPause)
			gain = prob.ImprovementFactor(n, mBig, m, tPause)
		}
		b.ReportMetric(base, "base-prob")
		b.ReportMetric(trig, "trigger-prob")
		b.ReportMetric(gain, "gain-x")
	})
	b.Run("monte-carlo", func(b *testing.B) {
		const n, mBig, m, tPause = 100000, 10, 2, 1000
		var mc float64
		for i := 0; i < b.N; i++ {
			mc = prob.MonteCarloTrigger(n, mBig, m, tPause, 2000, int64(i))
		}
		b.ReportMetric(mc, "mc-trigger-prob")
	})
	b.Run("fig4-with-bp", func(b *testing.B) {
		benchRow(b, harness.LongPause, func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return fig4.Run(fig4.Config{Engine: e, Breakpoint: bp, Timeout: to})
		})
	})
	b.Run("fig4-step-model", func(b *testing.B) {
		var p float64
		for i := 0; i < b.N; i++ {
			p = fig4.StepProbability(200, 5, 500, int64(i))
		}
		b.ReportMetric(p, "natural-prob")
	})
}

// BenchmarkAblation_NaiveSleep compares BTrigger against the "ad-hoc
// sleep" trick of section 8: pausing one side unconditionally instead of
// rendezvousing. The naive sleep still requires luck; BTrigger does not.
func BenchmarkAblation_NaiveSleep(b *testing.B) {
	scenario := func(useBTrigger bool) bool {
		e := core.NewEngine()
		obj := new(int)
		raceHit := false
		var order []int
		var mu sync.Mutex
		record := func(v int) {
			mu.Lock()
			order = append(order, v)
			mu.Unlock()
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the "late" thread
			defer wg.Done()
			time.Sleep(time.Duration(time.Now().UnixNano()%2000) * time.Microsecond)
			if useBTrigger {
				e.TriggerHereAnd(core.NewConflictTrigger("ab", obj), true,
					core.Options{Timeout: 100 * time.Millisecond}, func() { record(1) })
			} else {
				record(1)
			}
		}()
		go func() { // the "early" thread
			defer wg.Done()
			if useBTrigger {
				e.TriggerHere(core.NewConflictTrigger("ab", obj), false,
					core.Options{Timeout: 100 * time.Millisecond})
			} else {
				time.Sleep(500 * time.Microsecond) // the ad-hoc sleep
			}
			record(2)
		}()
		wg.Wait()
		mu.Lock()
		raceHit = len(order) == 2 && order[0] == 1 && order[1] == 2
		mu.Unlock()
		return raceHit
	}
	b.Run("btrigger", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if scenario(true) {
				hits++
			}
		}
		b.ReportMetric(float64(hits)/float64(b.N), "order-prob")
	})
	b.Run("naive-sleep", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if scenario(false) {
				hits++
			}
		}
		b.ReportMetric(float64(hits)/float64(b.N), "order-prob")
	})
}

// BenchmarkBaseline_PCT contrasts reproducing a known bug with a
// breakpoint against *finding* it with schedule-exploration baselines on
// the Figure 4 step program: uniform random scheduling (hopeless for a
// deep ordering bug), PCT depth 1 (its 1/n guarantee), and the
// breakpoint (deterministic). This quantifies the paper's positioning
// against CHESS/PCT-style tools.
func BenchmarkBaseline_PCT(b *testing.B) {
	const prefix, tail = 60, 5
	build := func() ([]*sched.Thread, func() bool) {
		x := 0
		sawZero := false
		t1 := sched.NewThread("t1")
		for i := 0; i < prefix; i++ {
			t1.AddStep(func() {})
		}
		t1.AddStep(func() { sawZero = x == 0 })
		t2 := sched.NewThread("t2")
		t2.AddStep(func() { x = 1 })
		for i := 0; i < tail; i++ {
			t2.AddStep(func() {})
		}
		return []*sched.Thread{t1, t2}, func() bool { return sawZero }
	}
	b.Run("random-scheduler", func(b *testing.B) {
		hits := sched.CountSchedules(0, b.N, build)
		b.ReportMetric(float64(hits)/float64(b.N), "find-prob")
	})
	b.Run("pct-depth1", func(b *testing.B) {
		hits := sched.CountPCT(0, b.N, 1, build)
		b.ReportMetric(float64(hits)/float64(b.N), "find-prob")
		b.ReportMetric(sched.PCTGuarantee(2, prefix+tail+2, 1), "guarantee")
	})
	b.Run("breakpoint", func(b *testing.B) {
		benchRow(b, harness.ShortPause, func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return fig4.Run(fig4.Config{Engine: e, Breakpoint: bp, Timeout: to, Work: 5000})
		})
	})
}

// BenchmarkAblation_OrderWindow measures design decision 2 of DESIGN.md:
// how often the first-action side's next instruction actually executes
// first when both sides use plain TriggerHere (no handshake), with and
// without the engine's ordering window.
func BenchmarkAblation_OrderWindow(b *testing.B) {
	run := func(window time.Duration) func(b *testing.B) {
		return func(b *testing.B) {
			ordered := 0
			for i := 0; i < b.N; i++ {
				e := core.NewEngine()
				e.OrderWindow = window
				obj := new(int)
				var first, second time.Time
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					e.TriggerHere(core.NewConflictTrigger("ow", obj), true,
						core.Options{Timeout: time.Second})
					first = time.Now() // the "next instruction"
				}()
				go func() {
					defer wg.Done()
					e.TriggerHere(core.NewConflictTrigger("ow", obj), false,
						core.Options{Timeout: time.Second})
					second = time.Now()
				}()
				wg.Wait()
				if first.Before(second) {
					ordered++
				}
			}
			b.ReportMetric(float64(ordered)/float64(b.N), "order-prob")
		}
	}
	b.Run("window-100us", run(100*time.Microsecond))
	b.Run("window-0", run(0))
}

// Engine microbenchmarks: the cost of a breakpoint in each outcome
// class. Disabled breakpoints must be nearly free (they stay in
// production code like assertions).
func BenchmarkTriggerDisabled(b *testing.B) {
	e := core.NewEngine()
	e.SetEnabled(false)
	tr := core.NewConflictTrigger("micro", new(int))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TriggerHere(tr, true, core.Options{})
	}
}

func BenchmarkTriggerLocalFalse(b *testing.B) {
	e := core.NewEngine()
	tr := core.NewConflictTrigger("micro", new(int))
	opts := core.Options{ExtraLocal: func() bool { return false }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.TriggerHere(tr, true, opts)
	}
}

func BenchmarkTriggerRendezvous(b *testing.B) {
	e := core.NewEngine()
	obj := new(int)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			e.TriggerHere(core.NewConflictTrigger("micro-rv", obj), true,
				core.Options{Timeout: time.Second})
		}()
		go func() {
			defer wg.Done()
			e.TriggerHere(core.NewConflictTrigger("micro-rv", obj), false,
				core.Options{Timeout: time.Second})
		}()
		wg.Wait()
	}
}

// sanitize converts row labels into benchmark-name-safe strings.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '(', ')', '#':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// benchTracedTraffic runs a fixed pattern of instrumented cell/lock
// traffic: one locked store plus one lock-free load per iteration, the
// access mix the predictive-analysis recorder journals per event.
func benchTracedTraffic(b *testing.B, sp *memory.Space, mu *locks.Mutex) {
	b.Helper()
	c := memory.NewCell(sp, "bench.traced", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		c.Store("bench:store", int64(i))
		mu.Unlock()
		//cbvet:ignore conflicts the mixed locked/lock-free traffic is the workload being priced, single-goroutine here
		c.Load("bench:load")
	}
}

// BenchmarkTraceRecordOverhead prices the predictive-race trace
// recorder (internal/predict): the same instrumented traffic with the
// recorder detached and attached (vector-clock maintenance plus one
// CRC-framed journal record per event, SyncNone). cbbench pairs the
// RecorderOn/RecorderOff series into the recorder_deltas section of
// BENCH_engine.json, so recording cost is tracked per commit.
func BenchmarkTraceRecordOverhead(b *testing.B) {
	b.Run("RecorderOff", func(b *testing.B) {
		benchTracedTraffic(b, memory.NewSpace(), locks.NewMutex("bench.mu"))
	})
	b.Run("RecorderOn", func(b *testing.B) {
		rec, err := predict.NewRecorder(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer rec.Close()
		sp := memory.NewSpace()
		mu := locks.NewMutex("bench.mu")
		rec.Instrument(sp, mu)
		benchTracedTraffic(b, sp, mu)
	})
}
