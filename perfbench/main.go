// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one seeded workload inside this
// process and starts no other:
//
//	perfbench --workload engine-hot --seed 1 --seconds 25 --trace 0
//
// The workloads are engine-hot, repro and socket-httpd; inputs.json
// records why each exists and what its seed drives. The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// With --trace 0 the metrics are the end-to-end set of metrics.go.
// With --trace 1 the window alternates untraced and traced slices;
// traced slices record spans around the benchmark's own calls and run
// probes into every lower layer (probe.go), and the metrics are the
// per-layer set plus the tracing overhead (traced minus untraced).
// Lines before the last carry the report: provenance, every named
// metric with its unit and sample count, and each output check.
//
// run.py builds the binary and replaces itself with it; build and run
// it directly with `go build` from this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadDef binds a workload name to its fixture constructor.
type workloadDef struct {
	name string
	// reps is how many fixtures a run builds; setup_s is the median
	// of their set-up times and the last one is measured.
	reps  int
	setup func(r *run) (fixture, error)
	// Report names of the workload's own end-to-end metrics.
	rateName, p50Name, p99Name, latUnit string
	latPerNs                            float64 // latUnit per nanosecond
}

// fixture is one built system under test.
type fixture interface {
	// measure runs the timed window and fills r.out.
	measure(r *run) error
	// close releases everything the fixture opened.
	close() error
}

var workloads = []workloadDef{
	{name: "engine-hot", reps: 15, setup: setupEngineHot,
		rateName: "arrivals_per_s", p50Name: "arrival_ns_p50", p99Name: "arrival_ns_p99", latUnit: "ns", latPerNs: 1},
	{name: "repro", reps: 3, setup: setupRepro,
		rateName: "trials_per_s", p50Name: "trial_ms_p50", p99Name: "trial_ms_p99", latUnit: "ms", latPerNs: 1e-6},
	{name: "socket-httpd", reps: 15, setup: setupSocket,
		rateName: "req_per_s", p50Name: "req_us_p50", p99Name: "req_us_p99", latUnit: "us", latPerNs: 1e-3},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// exitAfter bounds a whole run past its window: set-ups, checks and
// teardown included, the process exits by itself before this.
const exitAfter = 100 * time.Second

func main() {
	workload := flag.String("workload", "", "workload to run: engine-hot, repro, socket-httpd")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 25, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	commit := flag.String("commit", "unknown", "source revision, recorded with the result")
	workDir := flag.String("workdir", ".bench_build", "directory for temporary journals and written spans")
	flag.Parse()

	w, ok := lookupWorkload(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r, err := newRun(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r.prov.Commit = *commit
	limit := time.Duration(*seconds)*time.Second + exitAfter
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s; exiting\n", limit)
		r.removeTemp()
		os.Exit(3)
	})
	res, err := r.execute()
	watchdog.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := r.writeReport(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric is one report entry: a metric under the workload's own
// name, with the sample count behind it.
type namedMetric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Err  string `json:"error,omitempty"`
}

// run is one invocation's state: the settings, the measurements the
// fixture writes, and the resources the run must release.
type run struct {
	w      workloadDef
	seed   int64
	window time.Duration
	traced bool
	dir    string // the work directory
	tmp    string // this run's temporary directory, removed at exit

	clk   clock
	spans *spanLog
	probe *probeKit

	// Filled by the fixture's measure.
	attempted, failed, good int64
	lat                     [2][]int64 // op latency samples by slice class (0 untraced, 1 traced)
	ops                     [2]int64   // ops started per slice class
	latScale                float64    // divides recorded durations into per-op ns
	peakRSS                 float64    // MiB, read when the window closes
	cpu, cpu0               time.Duration
	steal0, ticks0          uint64
	layer                   map[string]float64
	details                 map[string]any

	setupTimes []float64
	listened   []string
	checks     []check
	named      []namedMetric
	prov       provenance
}

// sampleCap is the preallocated, pre-touched capacity of each latency
// series, so peak RSS does not grow with throughput.
const sampleCap = 1 << 18

func newRun(w workloadDef, seed int64, window time.Duration, traced bool, dir string) (*run, error) {
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, fmt.Errorf("work directory: %w", err)
	}
	tmp, err := os.MkdirTemp(filepath.Join(dir, "tmp"), w.name+"-")
	if err != nil {
		return nil, fmt.Errorf("temporary directory: %w", err)
	}
	r := &run{w: w, seed: seed, window: window, traced: traced, dir: dir, tmp: tmp,
		latScale: 1, layer: map[string]float64{}, details: map[string]any{}}
	for i := range r.lat {
		r.lat[i] = touched(sampleCap)
	}
	// Counters of layers a workload never reaches stay 0; every timing
	// must be measured.
	for _, d := range perLayer {
		if d.Unit == "count" || d.Unit == "ratio" || d.Unit == "MiB" {
			r.layer[d.Name] = 0
		}
	}
	r.spans = &spanLog{}
	r.prov = collectProvenance(r)
	return r, nil
}

// touched returns an empty slice whose backing pages are resident.
func touched(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = 1
	}
	return s[:0]
}

// removeTemp removes the run's temporary directory, and its parent
// once no other run uses it.
func (r *run) removeTemp() {
	os.RemoveAll(r.tmp)
	os.Remove(filepath.Dir(r.tmp)) // fails, harmlessly, while not empty
}

// listen records an address the run listens on; at exit each must
// refuse connections.
func (r *run) listen(addr string) { r.listened = append(r.listened, addr) }

// check records one output check.
func (r *run) check(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Err = err.Error()
	}
	r.checks = append(r.checks, c)
}

// execute builds the fixtures, measures the last one, checks and
// tears everything down, and returns the result line.
func (r *run) execute() (*result, error) {
	defer r.removeTemp()
	var fx fixture
	for i := 0; i < r.w.reps; i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		f, err := r.w.setup(r)
		r.setupTimes = append(r.setupTimes, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		fx = f
	}
	if r.traced {
		pk, err := newProbeKit(r, fx)
		if err != nil {
			fx.close()
			return nil, fmt.Errorf("probe kit: %w", err)
		}
		r.probe = pk
	}
	runtime.GC()
	before := readRuntime()
	measureErr := fx.measure(r)
	after := readRuntime()
	closeErr := fx.close()
	if r.probe != nil {
		r.probe.layer(r)
		r.probe.close()
	}
	if measureErr != nil {
		return nil, measureErr
	}
	if closeErr != nil {
		return nil, fmt.Errorf("teardown: %w", closeErr)
	}
	r.check("listeners closed", refusesAll(r.listened))
	r.layer["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	r.layer["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	r.layer["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	r.layer["runtime.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	if r.traced {
		if err := r.spans.write(filepath.Join(r.dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed))); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return r.result()
}

// result assembles the metrics and the report entries.
func (r *run) result() (*result, error) {
	if r.attempted < 1 {
		return nil, fmt.Errorf("no operation completed in the window")
	}
	un := summarize(r.lat[0])
	if un.TailPct == 0 {
		return nil, fmt.Errorf("only %d samples: too few for a tail percentile", un.N)
	}
	scale := r.latScale
	elapsed := r.clk.classTime(0).Seconds()
	rate := float64(r.ops[0]) / elapsed
	setup := median(append([]float64(nil), r.setupTimes...))
	rss := r.peakRSS
	success := float64(r.good) / float64(r.attempted)
	cpuPerOp := float64(r.cpu.Nanoseconds()) / 1e3 / float64(r.ops[0]+r.ops[1])

	w := r.w
	tailNote := ""
	if un.TailPct < 99 {
		tailNote = fmt.Sprintf("p%.1f: too few samples for p99", un.TailPct)
	}
	r.named = []namedMetric{
		{Name: "setup_s", Value: setup, Unit: "s", Samples: len(r.setupTimes)},
		{Name: "peak_rss_mb", Value: rss, Unit: "MiB", Samples: 1},
		{Name: "failed_frac", Value: float64(r.failed) / float64(r.attempted), Unit: "ratio", Samples: int(r.attempted)},
		{Name: w.rateName, Value: rate, Unit: "1/s", Samples: int(r.ops[0])},
		{Name: w.p50Name, Value: un.P50 / scale * w.latPerNs, Unit: w.latUnit, Samples: un.N},
		{Name: w.p99Name, Value: un.Tail / scale * w.latPerNs, Unit: w.latUnit, Samples: un.N, Note: tailNote},
		{Name: "op_cpu_us", Value: cpuPerOp, Unit: "us", Samples: int(r.ops[0] + r.ops[1])},
	}
	if w.name == "repro" {
		r.named = append(r.named, namedMetric{Name: "repro_rate", Value: success, Unit: "ratio", Samples: int(r.attempted)})
	}
	ladder := map[string]float64{}
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if un.N-rank(p, un.N) >= minBeyond {
			ladder[fmt.Sprintf("p%g", p)] = float64(r.lat[0][rank(p, un.N)-1]) / scale / 1e3
		}
	}
	ladder["max"] = float64(r.lat[0][un.N-1]) / scale / 1e3
	r.details["op_us_percentiles"] = ladder
	r.details["peak_rss_mb_with_checks"] = peakRSSMiB()

	m := map[string]metricValue{}
	if !r.traced {
		m["setup_s"] = metricValue{setup, "s"}
		m["peak_rss_mb"] = metricValue{rss, "MiB"}
		m["op_us_p50"] = metricValue{un.P50 / scale / 1e3, "us"}
		m["success_rate"] = metricValue{success, "ratio"}
	} else {
		tr := summarize(r.lat[1])
		trRate := float64(r.ops[1]) / r.clk.classTime(1).Seconds()
		r.layer["trace.spans"] = float64(r.spans.len())
		r.layer["trace.ops_per_s_delta"] = trRate - rate
		r.layer["trace.op_us_p50_delta"] = (tr.P50 - un.P50) / scale / 1e3
		r.details["trace"] = map[string]any{
			"untraced": map[string]any{"ops_per_s": rate, "op_us_p50": un.P50 / scale / 1e3, "samples": un.N},
			"traced":   map[string]any{"ops_per_s": trRate, "op_us_p50": tr.P50 / scale / 1e3, "samples": tr.N},
		}
		for _, d := range perLayer {
			v, ok := r.layer[d.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
			}
			m[d.Name] = metricValue{v, d.Unit}
		}
	}
	res := &result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: m}
	for _, c := range r.checks {
		res.Correct = res.Correct && c.OK
	}
	return res, nil
}

// writeReport prints the human-readable summary and the report object
// (one JSON line) that precede the result line.
func (r *run) writeReport(out io.Writer) error {
	fmt.Fprintf(out, "perfbench %s seed=%d window=%s trace=%v gomaxprocs=%d numcpu=%d go=%s commit=%s\n",
		r.w.name, r.seed, r.window, r.traced, r.prov.GOMAXPROCS, r.prov.NumCPU, r.prov.GoVersion, r.prov.Commit)
	for _, n := range r.named {
		fmt.Fprintf(out, "  %-16s %14.6g %-5s samples=%d %s\n", n.Name, n.Value, n.Unit, n.Samples, n.Note)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Err
		}
		fmt.Fprintf(out, "  check %-28s %s\n", c.Name, status)
	}
	if r.traced {
		names := make([]string, 0, len(r.layer))
		for k := range r.layer {
			names = append(names, k)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, k := range names {
			fmt.Fprintf(&b, " %s=%.6g", k, r.layer[k])
		}
		fmt.Fprintf(out, "  layers:%s\n", b.String())
	}
	rep := map[string]any{
		"workload": r.w.name, "seed": r.seed, "window_s": r.window.Seconds(), "traced": r.traced,
		"provenance": r.prov, "setup_s_each": r.setupTimes, "named": r.named,
		"checks": r.checks, "details": r.details, "attempted": r.attempted, "failed": r.failed,
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "report %s\n", b)
	return err
}
