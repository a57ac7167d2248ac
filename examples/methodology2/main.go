// Methodology II walk-through: the paper's section 5 log4j case study.
//
// The workflow, exactly as the paper describes it:
//
//  1. Stress testing shows occasional stalls (~5% of runs).
//
//  2. A conflict detector lists the lock contentions among the
//     AsyncAppender sites (lines 100, 236, 277, 309).
//
//  3. For each contention pair, a concurrent breakpoint forces both
//     resolve orders; the stall and breakpoint-hit rates per order are
//     tabulated.
//
//  4. The pair whose forced order stalls every run with the breakpoint
//     hit every run (236 -> 309) is the bug; it becomes the regression
//     breakpoint.
//
//     go run ./examples/methodology2
package main

import (
	"fmt"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/apps/log4j"
	"cbreak/internal/core"
	"cbreak/internal/harness"
)

func main() {
	const runs = 8

	// Step 1: stress runs without breakpoints.
	natural := harness.Measure(runs, false, harness.ShortPause,
		func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
			return log4j.Run(log4j.Config{Engine: e, Pair: log4j.Pair{First: log4j.S236, Second: log4j.S309},
				Breakpoint: bp, Timeout: to, StallAfter: harness.StallDeadline})
		})
	fmt.Printf("Step 1 — stress testing: %d/%d runs stalled naturally\n\n",
		natural.Statuses[appkit.Stall], natural.Runs)

	// Step 2: the contention list (see also `cbdetect -scenario contention`).
	fmt.Println("Step 2 — conflict detector reports contentions among sites 100, 236, 277, 309")
	fmt.Println()

	// Step 3: the resolve-order table.
	fmt.Println("Step 3 — force each resolve order:")
	fmt.Print(harness.Log4jTable(runs, harness.InProcess(nil, 0, 0)).Render())
	fmt.Println()

	// Step 4: conclusion.
	fmt.Println("Step 4 — 236 -> 309 stalls every run with the breakpoint hit every")
	fmt.Println("run: the missed notification is between setBufferSize and the")
	fmt.Println("dispatcher's sleep decision. Keep that breakpoint as the regression")
	fmt.Println("test (see examples/regression).")
}
