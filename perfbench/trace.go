package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// traceSlice is the length of one slice of a traced run's window.
// Slices alternate untraced (even) and traced (odd), so both halves of
// the overhead comparison see the same drift over the window.
const traceSlice = 500 * time.Millisecond

// clock places instants of the window into slice classes: 0 untraced,
// 1 traced. An untraced run has only class 0.
type clock struct {
	start, end time.Time
	traced     bool
}

func (c *clock) class(t time.Time) int {
	if !c.traced {
		return 0
	}
	return int(t.Sub(c.start)/traceSlice) % 2
}

// classTime is how long the window spent in class k.
func (c *clock) classTime(k int) time.Duration {
	total := c.end.Sub(c.start)
	if !c.traced {
		if k == 0 {
			return total
		}
		return 0
	}
	full, rem := total/traceSlice, total%traceSlice
	t := full / 2 * traceSlice
	if full%2 == 1 && k == 0 {
		t += traceSlice
	}
	if int(full%2) == k {
		t += rem
	}
	return t
}

// startWindow opens the measured window (and, traced, the probes) and
// returns its deadline.
func (r *run) startWindow() time.Time {
	r.cpu0 = cpuTime()
	r.steal0, r.ticks0 = cpuTicks()
	now := time.Now()
	r.clk = clock{start: now, traced: r.traced}
	r.spans.epoch = now
	if r.probe != nil {
		r.probe.start(r)
	}
	return now.Add(r.window)
}

// endWindow closes the window once every operation has returned.
func (r *run) endWindow() {
	end := time.Now()
	r.cpu = cpuTime() - r.cpu0
	if steal, ticks := cpuTicks(); ticks > r.ticks0 {
		r.details["cpu_steal_frac"] = float64(steal-r.steal0) / float64(ticks-r.ticks0)
	}
	r.peakRSS = peakRSSMiB() // before checks that read back what the window wrote
	if r.probe != nil {
		r.probe.stop()
	}
	r.clk.end = end
}

// opLog is one load goroutine's record of its operations.
type opLog struct {
	lat [2][]int64
	ops [2]int64
}

func newOpLog(capacity int) *opLog {
	return &opLog{lat: [2][]int64{touched(capacity), touched(capacity)}}
}

// beginOp marks an operation starting at t0. In a traced slice it
// returns the operation's span id, which probes beside it carry as
// their parent; otherwise 0.
func (r *run) beginOp(t0 time.Time) uint64 {
	if r.clk.class(t0) == 1 {
		return r.spans.begin()
	}
	return 0
}

// endOp records a call begun at t0 that took d and performed n
// operations (a batch of arrivals, or one trial or request), and its
// span when it has one.
func (r *run) endOp(l *opLog, name string, id uint64, t0 time.Time, d time.Duration, n int64) {
	k := r.clk.class(t0)
	l.lat[k] = append(l.lat[k], int64(d))
	l.ops[k] += n
	if id != 0 {
		r.spans.add(name, id, 0, t0, t0.Add(d))
	}
}

// merge folds the load goroutines' logs into the run.
func (r *run) merge(logs ...*opLog) {
	for _, l := range logs {
		for k := range l.lat {
			r.lat[k] = append(r.lat[k], l.lat[k]...)
			r.ops[k] += l.ops[k]
		}
	}
}

// span is one traced call: the benchmark's call into a layer.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the run's spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	next  atomic.Uint64
	cur   atomic.Uint64 // the workload operation most recently begun

	mu    sync.Mutex
	spans []span
}

// begin allocates an operation id and marks it current, so probes
// started beside it carry it as their parent.
func (l *spanLog) begin() uint64 {
	id := l.next.Add(1)
	l.cur.Store(id)
	return id
}

func (l *spanLog) add(name string, op, parent uint64, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()})
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
