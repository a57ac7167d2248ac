package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10, 0}, {11, 9}, {100, 90}, {500, 98}, {999, 98.9}, {1000, 99}, {1001, 99}, {100000, 99},
	} {
		p := tailPercentile(tc.n)
		if p != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, p, tc.want)
			continue
		}
		if p == 0 {
			continue
		}
		if beyond := tc.n - rank(p, tc.n); beyond < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it, want >= %d", tc.n, p, beyond, minBeyond)
		}
		// No higher step (up to 99) would still leave ten beyond.
		if next := p + 0.1; next <= 99 && tc.n-rank(next, tc.n) >= minBeyond {
			t.Errorf("n=%d: p%.1f also leaves %d beyond; p%v is not the highest", tc.n, next, tc.n-rank(next, tc.n), p)
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = int64(i + 1) // 1000..1, unsorted
	}
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500 || d.TailPct != 99 || d.Tail != 990 {
		t.Fatalf("summarize = %+v, want n=1000 p50=500 p99=990", d)
	}
	if d := summarize(make([]int64, 5)); d.TailPct != 0 {
		t.Fatalf("5 samples gave tail percentile %v, want none", d.TailPct)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

func TestClockClassTime(t *testing.T) {
	c := clock{traced: true}
	c.end = c.start.Add(5*traceSlice + traceSlice/2)
	if got, want := c.classTime(0), 3*traceSlice; got != want {
		t.Errorf("untraced class time %v, want %v", got, want)
	}
	if got, want := c.classTime(1), 2*traceSlice+traceSlice/2; got != want {
		t.Errorf("traced class time %v, want %v", got, want)
	}
	if c.class(c.start.Add(traceSlice/2)) != 0 || c.class(c.start.Add(traceSlice+1)) != 1 {
		t.Error("slices do not alternate untraced, traced")
	}
	u := clock{end: c.end}
	if u.classTime(0) != c.end.Sub(c.start) || u.classTime(1) != 0 || u.class(c.end) != 0 {
		t.Error("an untraced run must have only class 0")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric names, units
// and directions, and the workload names, equal to BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, perfbench prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, perfbench %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, bench.Workloads[i].Name, w.name)
		}
	}
}

// TestReproInputsResolve checks every recorded row still names the
// same trial in the tables, without running any of them.
func TestReproInputsResolve(t *testing.T) {
	in, err := loadReproInputs()
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Rows) != 32 {
		t.Errorf("%d repro rows, want 32", len(in.Rows))
	}
	for _, ref := range append(in.Rows, in.ProbeTrial) {
		if _, err := resolveRow(ref); err != nil {
			t.Error(err)
		}
	}
}
