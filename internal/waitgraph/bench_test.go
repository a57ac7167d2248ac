package waitgraph

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"cbreak/internal/core"
)

// These benchmarks measure the supervisor's steady-state tax on the
// engine's contended arrival path: the same workload as core's
// BenchmarkEngineContention (G goroutines hammering K breakpoints
// through handles on the hot rejection path), with and without a
// running supervisor. A rejected arrival is never postponed, so each
// tick of the supervisor's ticker reads a zero postponed count and
// returns, and the arrival path itself is untouched: the two series
// should be within noise of each other — CI captures both in
// BENCH_engine.json so the comparison is part of the artifact.

var benchSink atomic.Uint64

func benchContention(b *testing.B, supervised bool) {
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			e := core.NewEngine()
			e.OrderWindow = 0
			if supervised {
				sup := New(e, Config{Interval: 5 * time.Millisecond})
				sup.Start()
				defer sup.Stop()
			}
			handles := make([]*core.Breakpoint, k)
			for i := range handles {
				handles[i] = e.Breakpoint(fmt.Sprintf("bench.wg%d", i))
			}
			var next atomic.Uint64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				h := handles[int(next.Add(1))%k]
				t := core.NewPredTrigger(h.Name(), nil, func() bool { return false }, nil)
				n := uint64(0)
				for pb.Next() {
					if h.Trigger(t, true, core.Options{}) {
						n++
					}
				}
				benchSink.Add(n)
			})
		})
	}
}

func BenchmarkEngineContentionSupervisorOff(b *testing.B) { benchContention(b, false) }

func BenchmarkEngineContentionSupervisorOn(b *testing.B) { benchContention(b, true) }
