// Command cbbench converts `go test -bench` text output into a stable
// JSON artifact, so CI can archive the engine's benchmark numbers per
// commit and diffs between runs are machine-readable.
//
// Usage:
//
//	go test -run=NONE -bench=BenchmarkEngine -benchtime=100x ./internal/core \
//	    | cbbench -o BENCH_engine.json
//
// Unknown lines (goos/pkg headers, PASS, ok) are folded into the report
// header or skipped; only lines starting with "Benchmark" become
// entries, and the repeated runs of one series become one entry: its
// median ns/op and its minimum allocs/op (fold). The command fails if
// the input contains no benchmark lines, so a mis-scoped -bench pattern
// breaks the CI step instead of silently uploading an empty artifact.
//
// With -baseline, the fresh numbers are additionally gated against a
// committed prior artifact:
//
//	go test -c -o core.test ./internal/core
//	for pass in $(seq 100); do
//	    ./core.test -test.run=NONE -test.bench=BenchmarkEngine -test.benchtime=200000x -test.cpu 1,2
//	done | cbbench -baseline BENCH_engine.json \
//	    -gate BenchmarkEngineContention,BenchmarkEngineDisabled
//
// Each gated series (sub-benchmarks included) must stay within
// -max-regress of its baseline ns/op, and allocate no more per op than
// its baseline, or the command exits nonzero, naming every regressed
// series — the hot-path perf contract as a CI check. Passes of the test
// binary, rather than -count, interleave the series' runs, so a burst of
// load on a shared machine slows one run of each series instead of every
// run of one. A series is its name at one GOMAXPROCS: go test appends
// "-P" to the name for P > 1 and nothing for P = 1, and only entries with
// equal GOMAXPROCS are compared, so a baseline must be recorded at the
// -cpu values the gate runs with.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the entry ran at: the name's "-P" suffix,
	// or 1 when the name has none.
	Procs       int     `json:"gomaxprocs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Pkg is the package the line came from; multi-package bench runs
	// (core + waitgraph) produce one artifact with each entry
	// attributed to its source.
	Pkg string `json:"pkg,omitempty"`
	// Metrics holds any additional unit pairs (MB/s, custom ReportMetric
	// units) keyed by unit name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Runs is how many runs of the series the entry folds (fold); 0
	// means one.
	Runs int `json:"runs,omitempty"`
}

// Delta compares one matched benchmark pair: the supervised variant's
// ns/op over its unsupervised baseline, so the artifact answers "what
// does the wait-graph supervisor cost on the contended hot path?"
// without post-processing (a ratio near 1.0 means within noise).
type Delta struct {
	Base  string  `json:"base"`
	With  string  `json:"with"`
	Ratio float64 `json:"ratio"`
}

// Report is the whole artifact: the run's environment header plus one
// entry per series, in input order of first appearance.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// NumCPU is runtime.NumCPU() where the report was made; cbbench
	// reads the benchmark output from a pipe, so that is the machine
	// the benchmarks ran on.
	NumCPU     int         `json:"num_cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// SupervisorDeltas pairs each "...SupervisorOn..." series with its
	// "...SupervisorOff..." baseline.
	SupervisorDeltas []Delta `json:"supervisor_deltas,omitempty"`
	// RecorderDeltas pairs each "...RecorderOn..." series with its
	// "...RecorderOff..." baseline: the cost of the predictive-race
	// trace recorder on instrumented traffic.
	RecorderDeltas []Delta `json:"recorder_deltas,omitempty"`
}

// parse reads `go test -bench` text output into a Report.
func parse(r io.Reader) (Report, error) {
	var rep Report
	var pkg string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			if rep.Pkg == "" {
				rep.Pkg = pkg
			}
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, err := parseLine(line)
		if err != nil {
			return rep, err
		}
		b.Pkg = pkg
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	rep.Benchmarks = fold(rep.Benchmarks)
	rep.SupervisorDeltas = pairDeltas(rep.Benchmarks, "SupervisorOn", "SupervisorOff")
	rep.RecorderDeltas = pairDeltas(rep.Benchmarks, "RecorderOn", "RecorderOff")
	return rep, nil
}

// pairDeltas pairs every entry whose name contains the `on` marker
// with the matching `off` baseline (same name otherwise) and reports
// the ns/op ratio.
func pairDeltas(bs []Benchmark, on, off string) []Delta {
	byName := make(map[string]Benchmark, len(bs))
	for _, b := range bs {
		byName[b.Name] = b
	}
	var out []Delta
	for _, b := range bs {
		if !strings.Contains(b.Name, on) {
			continue
		}
		base, ok := byName[strings.Replace(b.Name, on, off, 1)]
		if !ok || base.NsPerOp == 0 {
			continue
		}
		out = append(out, Delta{Base: base.Name, With: b.Name, Ratio: b.NsPerOp / base.NsPerOp})
	}
	return out
}

// parseLine parses one "BenchmarkName-P  iters  v1 unit1  v2 unit2 ..."
// result line.
func parseLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line: %q", line)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bad iteration count in %q: %v", line, err)
	}
	_, procs := splitProcs(fields[0])
	b := Benchmark{Name: fields[0], Procs: procs, Iterations: iters}
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Benchmark{}, fmt.Errorf("odd value/unit pairing in %q", line)
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bad value %q in %q: %v", rest[i], line, err)
		}
		switch unit := rest[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}

// splitProcs splits a benchmark name into its base name and the
// GOMAXPROCS it ran at: go test appends "-P" for P > 1 and nothing for
// P = 1.
func splitProcs(name string) (base string, procs int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], p
		}
	}
	return name, 1
}

// gated reports whether a benchmark base name falls under one of the
// gate patterns: an exact match, or the pattern followed by a
// sub-benchmark path ("BenchmarkEngineContention" gates ".../K=8" but
// not BenchmarkEngineContentionSupervisorOn).
func gated(base string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if base == p || strings.HasPrefix(base, p+"/") {
			return true
		}
	}
	return false
}

// regression is one gated series that exceeded its allowance in one
// unit: ns/op beyond the allowed ratio, or allocs/op beyond the
// baseline's.
type regression struct {
	Name      string
	Procs     int
	Unit      string
	Base, Cur float64
	Ratio     float64
}

// series identifies one benchmark series: a base name in a package at
// one GOMAXPROCS.
type series struct {
	pkg, name string
	procs     int
}

// fold merges the repeated runs of each series into one entry, in
// order of first appearance; a series with one entry is kept as it is.
// The gate and its baseline take many runs (passes of a test binary, or
// `go test -count=N`), and on a shared VM a series with two workers is
// multi-modal: now and then a run reads up to twice as fast as the rest,
// as the two workers did or did not run at once. So the folded ns/op is
// the median over the runs, which holds still from one set of runs to
// the next where the minimum does not. An allocation on the measured
// path shows in every run, so allocs/op and B/op are the minimum. Runs
// counts the runs folded; the other fields are the first run's.
func fold(bs []Benchmark) []Benchmark {
	type key struct{ pkg, name string }
	groups := make(map[key][]Benchmark, len(bs))
	var order []key
	for _, b := range bs {
		k := key{b.Pkg, b.Name}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		runs := groups[k]
		f := runs[0]
		if len(runs) > 1 {
			f.Runs = len(runs)
			ns := make([]float64, len(runs))
			for i, b := range runs {
				ns[i] = b.NsPerOp
				f.BytesPerOp = math.Min(f.BytesPerOp, b.BytesPerOp)
				f.AllocsPerOp = math.Min(f.AllocsPerOp, b.AllocsPerOp)
			}
			f.NsPerOp = median(ns)
		}
		out = append(out, f)
	}
	return out
}

// median returns the median of vs, which it sorts.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// bySeries indexes a report's folded entries that have a time per op
// by series.
func bySeries(rep Report) map[series]Benchmark {
	out := make(map[series]Benchmark, len(rep.Benchmarks))
	for _, b := range fold(rep.Benchmarks) {
		if b.NsPerOp <= 0 {
			continue
		}
		base, procs := splitProcs(b.Name)
		out[series{pkg: b.Pkg, name: base, procs: procs}] = b
	}
	return out
}

// gate compares cur against base: every gated series present in both
// at the same GOMAXPROCS must hold its ns/op (the median over its runs,
// fold) within (1 + maxRegress) of the baseline's, and its allocs/op at
// or below the baseline's. It returns the regressions, one per series
// and unit, and how many series were compared; zero comparisons is the
// caller's error (a renamed benchmark must break the gate, not silently
// pass it).
func gate(cur, base Report, patterns []string, maxRegress float64) (regs []regression, compared int) {
	baseline := bySeries(base)
	fresh := bySeries(cur)
	keys := make([]series, 0, len(fresh))
	for key := range fresh {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.pkg != b.pkg {
			return a.pkg < b.pkg
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.procs < b.procs
	})
	for _, key := range keys {
		if !gated(key.name, patterns) {
			continue
		}
		prior, ok := baseline[key]
		if !ok {
			continue
		}
		compared++
		now := fresh[key]
		if ratio := now.NsPerOp / prior.NsPerOp; ratio > 1+maxRegress {
			regs = append(regs, regression{Name: key.name, Procs: key.procs, Unit: "ns/op", Base: prior.NsPerOp, Cur: now.NsPerOp, Ratio: ratio})
		}
		if now.AllocsPerOp > prior.AllocsPerOp {
			regs = append(regs, regression{Name: key.name, Procs: key.procs, Unit: "allocs/op", Base: prior.AllocsPerOp, Cur: now.AllocsPerOp})
		}
	}
	return regs, compared
}

func splitPatterns(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "committed cbbench JSON artifact to gate fresh numbers against")
	gatePats := flag.String("gate", "", "comma-separated benchmark names to gate (default: every series present in both artifacts)")
	maxRegress := flag.Float64("max-regress", 0.20, "allowed fractional ns/op regression against -baseline")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cbbench: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "cbbench: no benchmark result lines in input")
		os.Exit(1)
	}
	rep.NumCPU = runtime.NumCPU()
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cbbench: baseline: %v\n", err)
			os.Exit(1)
		}
		var prior Report
		if err := json.Unmarshal(data, &prior); err != nil {
			fmt.Fprintf(os.Stderr, "cbbench: baseline %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		regs, compared := gate(rep, prior, splitPatterns(*gatePats), *maxRegress)
		if compared == 0 {
			fmt.Fprintf(os.Stderr, "cbbench: no gated series matched between input and %s (renamed benchmark?)\n", *baseline)
			os.Exit(1)
		}
		for _, r := range regs {
			if r.Unit == "allocs/op" {
				fmt.Fprintf(os.Stderr, "cbbench: REGRESSION %s at GOMAXPROCS=%d: %g allocs/op -> %g allocs/op (allowed no more)\n",
					r.Name, r.Procs, r.Base, r.Cur)
				continue
			}
			fmt.Fprintf(os.Stderr, "cbbench: REGRESSION %s at GOMAXPROCS=%d: %.1f ns/op -> %.1f ns/op (%.2fx, allowed %.2fx)\n",
				r.Name, r.Procs, r.Base, r.Cur, r.Ratio, 1+*maxRegress)
		}
		if len(regs) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cbbench: %d gated series within %.0f%% of %s, none allocating more\n",
			compared, *maxRegress*100, *baseline)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cbbench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "cbbench: %v\n", err)
		os.Exit(1)
	}
}
