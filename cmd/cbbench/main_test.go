package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: cbreak/internal/core
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkEngineContention/K=1-4         	     100	       158.4 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineContention/K=8-4         	     100	       162.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineDisabled-4               	     100	        19.01 ns/op
BenchmarkEngineRendezvous/K=1-4         	     100	      6829 ns/op	     488 B/op	       5 allocs/op
BenchmarkThroughput-4                   	     100	       100 ns/op	      12.5 MB/s
PASS
ok  	cbreak/internal/core	1.234s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "cbreak/internal/core" {
		t.Fatalf("header = %q/%q/%q", rep.Goos, rep.Goarch, rep.Pkg)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(rep.Benchmarks))
	}
	k8 := rep.Benchmarks[1]
	if k8.Name != "BenchmarkEngineContention/K=8-4" || k8.Procs != 4 || k8.Iterations != 100 ||
		k8.NsPerOp != 162.6 || k8.BytesPerOp != 0 || k8.AllocsPerOp != 0 {
		t.Fatalf("K=8 entry = %+v", k8)
	}
	rv := rep.Benchmarks[3]
	if rv.NsPerOp != 6829 || rv.BytesPerOp != 488 || rv.AllocsPerOp != 5 {
		t.Fatalf("rendezvous entry = %+v", rv)
	}
	tp := rep.Benchmarks[4]
	if tp.Metrics["MB/s"] != 12.5 {
		t.Fatalf("throughput metrics = %+v", tp.Metrics)
	}
}

func TestParseSkipsNonBenchmarkLines(t *testing.T) {
	rep, err := parse(strings.NewReader("PASS\nok  \tcbreak/internal/core\t1.2s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from non-benchmark input", len(rep.Benchmarks))
	}
}

func TestParseRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX-4",                     // no iteration count
		"BenchmarkX-4\tnope\t1 ns/op",      // non-numeric iterations
		"BenchmarkX-4\t100\t1.5 ns/op 2.0", // dangling value
		"BenchmarkX-4\t100\tx ns/op",       // non-numeric value
	} {
		if _, err := parse(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("parse accepted malformed line %q", bad)
		}
	}
}

const multiPkgOutput = `goos: linux
goarch: amd64
pkg: cbreak/internal/core
BenchmarkEngineContention/K=1-4  	     100	       158.4 ns/op
PASS
ok  	cbreak/internal/core	1.234s
pkg: cbreak/internal/waitgraph
BenchmarkEngineContentionSupervisorOff/K=1-4	     100	       160.0 ns/op
BenchmarkEngineContentionSupervisorOn/K=1-4 	     100	       168.0 ns/op
BenchmarkEngineContentionSupervisorOn/K=8-4 	     100	       170.0 ns/op
PASS
ok  	cbreak/internal/waitgraph	1.1s
`

func TestParseMultiPackageAndSupervisorDeltas(t *testing.T) {
	rep, err := parse(strings.NewReader(multiPkgOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pkg != "cbreak/internal/core" {
		t.Fatalf("header pkg = %q, want the first package", rep.Pkg)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}
	if rep.Benchmarks[0].Pkg != "cbreak/internal/core" ||
		rep.Benchmarks[1].Pkg != "cbreak/internal/waitgraph" {
		t.Fatalf("per-benchmark pkgs = %q, %q", rep.Benchmarks[0].Pkg, rep.Benchmarks[1].Pkg)
	}
	// K=1 has both variants; K=8 has no Off baseline and is skipped.
	if len(rep.SupervisorDeltas) != 1 {
		t.Fatalf("deltas = %+v, want exactly the K=1 pair", rep.SupervisorDeltas)
	}
	d := rep.SupervisorDeltas[0]
	if d.Base != "BenchmarkEngineContentionSupervisorOff/K=1-4" ||
		d.With != "BenchmarkEngineContentionSupervisorOn/K=1-4" {
		t.Fatalf("delta pair = %+v", d)
	}
	if d.Ratio < 1.04 || d.Ratio > 1.06 {
		t.Fatalf("delta ratio = %v, want 168/160", d.Ratio)
	}
}

func TestParseRecorderDeltas(t *testing.T) {
	const out = `
BenchmarkTraceRecordOverhead/RecorderOff-4	    1000	       50.0 ns/op
BenchmarkTraceRecordOverhead/RecorderOn-4 	    1000	      200.0 ns/op
PASS
`
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RecorderDeltas) != 1 {
		t.Fatalf("recorder deltas = %+v, want exactly one pair", rep.RecorderDeltas)
	}
	d := rep.RecorderDeltas[0]
	if d.Base != "BenchmarkTraceRecordOverhead/RecorderOff-4" ||
		d.With != "BenchmarkTraceRecordOverhead/RecorderOn-4" {
		t.Fatalf("recorder delta pair = %+v", d)
	}
	if d.Ratio != 4.0 {
		t.Fatalf("recorder delta ratio = %v, want 4.0", d.Ratio)
	}
	if len(rep.SupervisorDeltas) != 0 {
		t.Fatalf("supervisor deltas leaked into recorder-only input: %+v", rep.SupervisorDeltas)
	}
}

func TestGate(t *testing.T) {
	base := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkEngineContention/K=8-4", Pkg: "core", NsPerOp: 100},
		{Name: "BenchmarkEngineDisabled-4", Pkg: "core", NsPerOp: 20},
		{Name: "BenchmarkEngineContentionSupervisorOn-4", Pkg: "wg", NsPerOp: 100},
	}}
	cur := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkEngineContention/K=8-4", Pkg: "core", NsPerOp: 115},
		{Name: "BenchmarkEngineDisabled-4", Pkg: "core", NsPerOp: 30},
		// Gated patterns must not swallow the SupervisorOn series by
		// prefix; it regressed 3x but is outside the gate set.
		{Name: "BenchmarkEngineContentionSupervisorOn-4", Pkg: "wg", NsPerOp: 300},
	}}
	pats := []string{"BenchmarkEngineContention", "BenchmarkEngineDisabled"}

	regs, compared := gate(cur, base, pats, 0.20)
	if compared != 2 {
		t.Fatalf("compared %d series, want 2", compared)
	}
	if len(regs) != 1 || regs[0].Name != "BenchmarkEngineDisabled" || regs[0].Procs != 4 || regs[0].Ratio != 1.5 {
		t.Fatalf("regressions = %+v, want one 1.5x on BenchmarkEngineDisabled", regs)
	}

	// Within the allowance: clean.
	if regs, _ := gate(cur, base, []string{"BenchmarkEngineContention"}, 0.20); len(regs) != 0 {
		t.Fatalf("contention within 20%% flagged: %+v", regs)
	}
	// No patterns gates everything present in both.
	if _, compared := gate(cur, base, nil, 0.20); compared != 3 {
		t.Fatalf("ungated comparison covered %d series, want 3", compared)
	}

	// A series that allocates more than its baseline regresses, however
	// fast it runs; one that allocates as much or less does not.
	base = Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkEngineBoundSpent-2", Pkg: "core", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "BenchmarkEngineListened-2", Pkg: "core", NsPerOp: 100, AllocsPerOp: 2},
	}}
	cur = Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkEngineBoundSpent-2", Pkg: "core", NsPerOp: 60, AllocsPerOp: 1},
		{Name: "BenchmarkEngineBoundSpent-2", Pkg: "core", NsPerOp: 90, AllocsPerOp: 1},
		{Name: "BenchmarkEngineListened-2", Pkg: "core", NsPerOp: 100, AllocsPerOp: 1},
	}}
	pats = []string{"BenchmarkEngineBoundSpent", "BenchmarkEngineListened"}
	regs, compared = gate(cur, base, pats, 0.20)
	if compared != 2 || len(regs) != 1 {
		t.Fatalf("compared %d, regressions %+v; want one allocation regression of two series", compared, regs)
	}
	if r := regs[0]; r.Name != "BenchmarkEngineBoundSpent" || r.Unit != "allocs/op" || r.Base != 0 || r.Cur != 1 {
		t.Fatalf("regression = %+v, want BenchmarkEngineBoundSpent at 0 -> 1 allocs/op", r)
	}

	// A series is gated on its median run: one fast run does not hide a
	// regression of the rest.
	cur = Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkEngineListened-2", Pkg: "core", NsPerOp: 50, AllocsPerOp: 2},
		{Name: "BenchmarkEngineListened-2", Pkg: "core", NsPerOp: 130, AllocsPerOp: 2},
		{Name: "BenchmarkEngineListened-2", Pkg: "core", NsPerOp: 125, AllocsPerOp: 2},
	}}
	regs, _ = gate(cur, base, pats, 0.20)
	if len(regs) != 1 || regs[0].Unit != "ns/op" || regs[0].Cur != 125 {
		t.Fatalf("regressions = %+v, want the median run's 125 ns/op", regs)
	}
}

// TestFoldTakesMedianRun: the runs of a series fold into one entry, in
// order of first appearance, with the median ns/op, the minimum
// allocs/op and B/op, the number of runs and the first run's other
// fields; a series with one run is kept as it is.
func TestFoldTakesMedianRun(t *testing.T) {
	got := fold([]Benchmark{
		{Name: "BenchmarkB-2", Pkg: "core", Iterations: 100, NsPerOp: 100, BytesPerOp: 32, AllocsPerOp: 1, Metrics: map[string]float64{"MB/s": 10}},
		{Name: "BenchmarkA", Pkg: "core", Iterations: 100, NsPerOp: 7},
		{Name: "BenchmarkB-2", Pkg: "core", Iterations: 100, NsPerOp: 40, BytesPerOp: 0, AllocsPerOp: 0, Metrics: map[string]float64{"MB/s": 30}},
		{Name: "BenchmarkB-2", Pkg: "core", Iterations: 100, NsPerOp: 104, BytesPerOp: 32, AllocsPerOp: 1, Metrics: map[string]float64{"MB/s": 20}},
		{Name: "BenchmarkB-2", Pkg: "wg", Iterations: 100, NsPerOp: 9},
	})
	want := []Benchmark{
		{Name: "BenchmarkB-2", Pkg: "core", Iterations: 100, NsPerOp: 100, BytesPerOp: 0, AllocsPerOp: 0, Metrics: map[string]float64{"MB/s": 10}, Runs: 3},
		{Name: "BenchmarkA", Pkg: "core", Iterations: 100, NsPerOp: 7},
		{Name: "BenchmarkB-2", Pkg: "wg", Iterations: 100, NsPerOp: 9},
	}
	if len(got) != len(want) {
		t.Fatalf("folded %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Pkg != w.Pkg || g.NsPerOp != w.NsPerOp || g.BytesPerOp != w.BytesPerOp ||
			g.AllocsPerOp != w.AllocsPerOp || g.Runs != w.Runs || g.Metrics["MB/s"] != w.Metrics["MB/s"] {
			t.Errorf("entry %d = %+v, want %+v", i, g, w)
		}
	}
	if even := fold([]Benchmark{{Name: "BenchmarkC", NsPerOp: 10}, {Name: "BenchmarkC", NsPerOp: 20}}); even[0].NsPerOp != 15 {
		t.Errorf("median of two runs = %v, want 15", even[0].NsPerOp)
	}
}

// TestGatePairsOnlyEqualGOMAXPROCS: a series recorded at one GOMAXPROCS
// is never compared with the same benchmark at another. go test writes
// no suffix at GOMAXPROCS=1, so "BenchmarkEngineDisabled" is the
// one-CPU series and "BenchmarkEngineDisabled-2" the two-CPU one.
func TestGatePairsOnlyEqualGOMAXPROCS(t *testing.T) {
	base := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkEngineDisabled", Pkg: "core", NsPerOp: 10},
		{Name: "BenchmarkEngineDisabled-2", Pkg: "core", NsPerOp: 40},
	}}
	pats := []string{"BenchmarkEngineDisabled"}

	// 30 ns/op at GOMAXPROCS=2 is 3x the one-CPU baseline but within
	// the two-CPU one; 11 ns/op at one CPU is within its own.
	cur := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkEngineDisabled-2", Pkg: "core", NsPerOp: 30},
		{Name: "BenchmarkEngineDisabled", Pkg: "core", NsPerOp: 11},
	}}
	if regs, compared := gate(cur, base, pats, 0.20); compared != 2 || len(regs) != 0 {
		t.Fatalf("compared %d, regressions %+v; want 2 clean comparisons", compared, regs)
	}

	// A one-CPU regression is caught against the one-CPU baseline only.
	cur.Benchmarks[1].NsPerOp = 30
	regs, _ := gate(cur, base, pats, 0.20)
	if len(regs) != 1 || regs[0].Procs != 1 || regs[0].Ratio != 3 {
		t.Fatalf("regressions = %+v, want one 3x at GOMAXPROCS=1", regs)
	}

	// A GOMAXPROCS the baseline lacks is compared with nothing.
	cur = Report{Benchmarks: []Benchmark{{Name: "BenchmarkEngineDisabled-4", Pkg: "core", NsPerOp: 100}}}
	if regs, compared := gate(cur, base, pats, 0.20); compared != 0 || len(regs) != 0 {
		t.Fatalf("GOMAXPROCS=4 series compared %d times against a 1/2-CPU baseline: %+v", compared, regs)
	}
}

func TestSplitProcs(t *testing.T) {
	type split struct {
		base  string
		procs int
	}
	for in, want := range map[string]split{
		"BenchmarkEngineDisabled-4":        {"BenchmarkEngineDisabled", 4},
		"BenchmarkEngineContention/K=8-16": {"BenchmarkEngineContention/K=8", 16},
		"BenchmarkEngineContention/K=8":    {"BenchmarkEngineContention/K=8", 1},
		"BenchmarkOdd":                     {"BenchmarkOdd", 1},
		"BenchmarkDash-suffix":             {"BenchmarkDash-suffix", 1},
	} {
		if base, procs := splitProcs(in); base != want.base || procs != want.procs {
			t.Errorf("splitProcs(%q) = %q, %d, want %q, %d", in, base, procs, want.base, want.procs)
		}
	}
}
