package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The end-to-end and per-layer
// lists below are the benchmark's contract: BENCHMARK.json repeats
// them (with the end-to-end bounds) and a test keeps the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every workload reports with tracing off.
// Each workload maps its operation onto op: an arrival (engine-hot), a
// reproduction trial (repro) or a request (socket-httpd). Throughput,
// the p99 and the CPU time per operation are printed in the report
// under the workload's own names but not listed here: on a shared
// two-vCPU host they moved between runs of the same code by more than
// the largest bound BENCHMARK.json allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"op_us_p50", "us", "lower"},
	{"success_rate", "ratio", "higher"},
}

// perLayer are the metrics every workload reports with tracing on.
// Counters read the workload's own objects at the window's edges and
// are 0 where the workload's operations never reach the layer. Timings
// come from the probes (probe.go), which run on every workload; the
// harness, confirmation and rendezvous-wait timings come from the
// run's trials: repro's own, elsewhere one probe trial a second.
var perLayer = []metricDef{
	{"core.arrivals", "count", "higher"},
	{"core.local_false", "count", "higher"},
	{"core.disabled", "count", "higher"},
	{"core.refined_ns", "ns", "lower"},
	{"core.disabled_ns", "ns", "lower"},
	{"core.postpones", "count", "lower"},
	{"core.hits", "count", "higher"},
	{"core.timeouts", "count", "lower"},
	{"core.hit_ratio", "ratio", "higher"},
	{"core.wait_ms", "ms", "lower"},
	{"telemetry.publish_idle_ns", "ns", "lower"},
	{"telemetry.publish_tap_ns", "ns", "lower"},
	{"sink.records", "count", "higher"},
	{"sink.record_us", "us", "lower"},
	{"journal.append_us", "us", "lower"},
	{"journal.sync_ms", "ms", "lower"},
	{"journal.mb", "MiB", "lower"},
	{"journal.segments", "count", "lower"},
	{"netchaos.connections", "count", "higher"},
	{"netchaos.faults", "count", "lower"},
	{"netchaos.retries", "count", "lower"},
	{"netchaos.hop_us", "us", "lower"},
	{"appkit.served", "count", "higher"},
	{"appkit.shed", "count", "lower"},
	{"appkit.direct_us", "us", "lower"},
	{"httpd.handle_us", "us", "lower"},
	{"waitgraph.scans", "count", "lower"},
	{"waitgraph.scan_us", "us", "lower"},
	{"waitgraph.confirm_ms", "ms", "lower"},
	{"harness.overhead_ms", "ms", "lower"},
	{"harness.app_ms", "ms", "lower"},
	{"harness.bp_wait_ms", "ms", "lower"},
	{"harness.misses", "count", "lower"},
	{"locks.lock_unlock_ns", "ns", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.alloc_mb", "MiB", "lower"},
	{"runtime.gomaxprocs", "count", "higher"},
	{"trace.spans", "count", "lower"},
	{"trace.ops_per_s_delta", "1/s", "higher"},
	{"trace.op_us_p50_delta", "us", "lower"},
}

// minBeyond is how many samples must lie above a reported tail
// percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile, at most 99 and in
// steps of 0.1, that leaves at least minBeyond of n samples above it
// under the nearest-rank rule, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	if n <= minBeyond {
		return 0
	}
	p := math.Floor(1000*float64(n-minBeyond)/float64(n)) / 10
	return math.Min(p, 99)
}

// rank is the 1-based nearest-rank position of percentile p in n
// samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// dist summarizes one set of durations (nanoseconds): the median and
// the highest percentile with minBeyond samples above it.
type dist struct {
	N         int
	P50, Tail float64
	TailPct   float64
}

// summarize sorts xs in place and returns its median and tail.
func summarize(xs []int64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	d.P50 = float64(xs[rank(50, len(xs))-1])
	if p := tailPercentile(len(xs)); p > 0 {
		r := rank(p, len(xs))
		d.TailPct, d.Tail = p, float64(xs[r-1])
	}
	return d
}

// median returns the median of xs (mean of the middle two for an even
// count), 0 for none. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
