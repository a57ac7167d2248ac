package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These benchmarks measure the engine's arrival hot paths under the
// sharded registry. BenchmarkEngineContention is the headline: G
// goroutines hammering K distinct breakpoints. With the old single
// engine mutex, throughput was flat in K (every arrival serialized);
// with per-breakpoint shards, K >= 8 should scale with GOMAXPROCS
// because arrivals on distinct breakpoints share no lock. CI runs these
// with -benchtime=100x as a smoke test (BENCH_engine.json artifact).

var benchSink atomic.Uint64

// benchEngine returns an engine configured for tight benchmarking (no
// ordering spin-window on hits).
func benchEngine() *Engine {
	e := NewEngine()
	e.OrderWindow = 0
	return e
}

// neverTrigger returns a trigger whose local predicate is false, so an
// arrival takes the hot rejection path: stats, an event only if the bus
// has a listener, no postponement. This is the cost a refined
// breakpoint pays on a busy production site that is not in the buggy
// state.
func neverTrigger(name string) Trigger {
	return NewPredTrigger(name, nil, func() bool { return false }, nil)
}

func BenchmarkEngineContention(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			e := benchEngine()
			handles := make([]*Breakpoint, k)
			for i := range handles {
				handles[i] = e.Breakpoint(fmt.Sprintf("bench.bp%d", i))
			}
			var next atomic.Uint64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				// Each worker goroutine binds to one breakpoint, so K
				// partitions the workers across shards.
				h := handles[int(next.Add(1))%k]
				t := neverTrigger(h.Name())
				n := uint64(0)
				for pb.Next() {
					if h.Trigger(t, true, Options{}) {
						n++
					}
				}
				benchSink.Add(n)
			})
		})
	}
}

// BenchmarkEngineListened is the local-false arrival with one no-op tap
// on the engine's bus — the set-up of a service whose durable sink
// journals every event. Each arrival then takes an event sequence
// number, reads the clock and delivers the record to the tap.
func BenchmarkEngineListened(b *testing.B) {
	e := benchEngine()
	defer e.Bus().AttachTap(noopTap{}).Detach()
	h := e.Breakpoint("bench.listened")
	t := neverTrigger(h.Name())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		n := uint64(0)
		for pb.Next() {
			if h.Trigger(t, true, Options{}) {
				n++
			}
		}
		benchSink.Add(n)
	})
}

// BenchmarkEngineDisabled measures the cost left behind in production
// when breakpoints are switched off — the paper's "like assertions"
// claim. It should be a few atomic loads and no allocation.
func BenchmarkEngineDisabled(b *testing.B) {
	e := benchEngine()
	e.SetEnabled(false)
	h := e.Breakpoint("bench.disabled")
	t := neverTrigger("bench.disabled")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		n := uint64(0)
		for pb.Next() {
			if h.Trigger(t, true, Options{}) {
				n++
			}
		}
		benchSink.Add(n)
	})
}

// BenchmarkEngineBoundSpent is perfbench engine-hot's arrival: the apps'
// call shape, a ConflictTrigger built per call, at a breakpoint whose
// bound (Options{Bound: 1}) its one hit has spent, so every arrival is
// refined away as local-false. As in engine-hot, the workers alternate
// between the two sides. The trigger stays on the caller's stack, so it
// reads 0 allocs/op, and the CI bench gate fails a change that makes it
// allocate.
func BenchmarkEngineBoundSpent(b *testing.B) {
	e := benchEngine()
	h := e.Breakpoint("bench.bound")
	obj := new(int)
	var wg sync.WaitGroup
	for _, first := range []bool{true, false} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.Trigger(NewConflictTrigger("bench.bound", obj), first, Options{Bound: 1, Timeout: 5 * time.Second})
		}()
	}
	wg.Wait()
	if n := h.Stats().Hits(); n != 1 {
		b.Fatalf("%d set-up hits, want 1", n)
	}
	spent := Options{Bound: 1}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		first := next.Add(1)%2 == 1
		n := uint64(0)
		for pb.Next() {
			if h.Trigger(NewConflictTrigger("bench.bound", obj), first, spent) {
				n++
			}
		}
		benchSink.Add(n)
	})
}

// BenchmarkEngineDisabledString is the disabled path through the
// string-keyed API (one extra atomic load, no shard resolution since
// the enabled check comes first).
func BenchmarkEngineDisabledString(b *testing.B) {
	e := benchEngine()
	e.SetEnabled(false)
	t := neverTrigger("bench.disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.TriggerHere(t, true, Options{}) {
			benchSink.Add(1)
		}
	}
}

// BenchmarkEngineStringKeyed is BenchmarkEngineContention/K=1's
// workload through the string-keyed API: the per-call registry lookup
// the Breakpoint handle hoists. The delta against the handle variant is
// the price of not calling Register.
func BenchmarkEngineStringKeyed(b *testing.B) {
	e := benchEngine()
	t := neverTrigger("bench.bp0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e.TriggerHere(t, true, Options{}) {
			benchSink.Add(1)
		}
	}
}

// BenchmarkEngineHandle is the same workload through a pre-resolved
// handle, serially (compare with BenchmarkEngineStringKeyed).
func BenchmarkEngineHandle(b *testing.B) {
	e := benchEngine()
	h := e.Breakpoint("bench.bp0")
	t := neverTrigger("bench.bp0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if h.Trigger(t, true, Options{}) {
			benchSink.Add(1)
		}
	}
}

// BenchmarkEngineRendezvous measures full hits: pairs of goroutines
// meeting at the same breakpoint, spread over K distinct breakpoints.
// The short pause time keeps the unavoidable unmatched tail (a worker
// whose partner drained its iteration budget) cheap.
func BenchmarkEngineRendezvous(b *testing.B) {
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			e := benchEngine()
			e.DefaultTimeout = 2 * time.Millisecond
			objs := make([]*int, k)
			handles := make([]*Breakpoint, k)
			for i := range handles {
				objs[i] = new(int)
				handles[i] = e.Breakpoint(fmt.Sprintf("bench.rv%d", i))
			}
			var next atomic.Uint64
			// Guarantee both sides of every breakpoint are populated:
			// worker ids 2i and 2i+1 share breakpoint i with opposite
			// sides.
			b.SetParallelism(2 * k)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				id := int(next.Add(1)) - 1
				i := (id / 2) % k
				h, first := handles[i], id%2 == 0
				t := NewConflictTrigger(h.Name(), objs[i])
				n := uint64(0)
				for pb.Next() {
					if h.Trigger(t, first, Options{}) {
						n++
					}
				}
				benchSink.Add(n)
			})
		})
	}
}
