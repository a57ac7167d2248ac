// Package appkit provides the shared vocabulary of the benchmark
// applications: run outcomes matching the error classes of the paper's
// Tables 1 and 2 (exception, stall, test failure, crash, log corruption,
// log omission, log disorder), stall detection by deadline, and panic
// capture.
//
// Every application package under internal/apps exposes a Run function
// returning a Result, so the harness can measure reproduction
// probability, runtime overhead, and mean-time-to-error uniformly.
package appkit

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"
)

// Status classifies the outcome of one application run.
type Status int

const (
	// OK: the run completed without observing the bug.
	OK Status = iota
	// Exception: the run panicked (Java exception analog).
	Exception
	// Stall: the run exceeded its deadline (deadlock or missed
	// notification).
	Stall
	// TestFail: the run completed but produced a wrong result.
	TestFail
	// Crash: the run hit a fatal error such as a nil dereference
	// (C/C++ program crash analog).
	Crash
	// LogCorrupt: interleaved/garbled log output (Apache bug #25520
	// analog).
	LogCorrupt
	// LogOmission: a log record was silently dropped (MySQL bug #791
	// analog).
	LogOmission
	// LogDisorder: log records appear out of order (MySQL bug #169
	// analog).
	LogDisorder
	// TrialTimeout: the harness killed the trial at its per-trial
	// wall-clock deadline. This is an infrastructure outcome (the trial
	// never reported), not an observed bug: a deadlock the *application*
	// detects within its own StallAfter budget reports Stall instead.
	TrialTimeout
	// WorkerCrash: the trial's worker process died without reporting a
	// result (abnormal exit, killed, or garbled report). Infrastructure
	// outcome, not an observed bug.
	WorkerCrash
)

// String returns the outcome label used in result tables.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Exception:
		return "exception"
	case Stall:
		return "stall"
	case TestFail:
		return "test fail"
	case Crash:
		return "crash"
	case LogCorrupt:
		return "log corruption"
	case LogOmission:
		return "log omission"
	case LogDisorder:
		return "log disorder"
	case TrialTimeout:
		return "trial timeout"
	case WorkerCrash:
		return "worker crash"
	default:
		return "unknown"
	}
}

// statusNames maps every label back to its Status for deserialization.
var statusNames = func() map[string]Status {
	m := make(map[string]Status)
	for s := OK; s <= WorkerCrash; s++ {
		m[s.String()] = s
	}
	return m
}()

// ParseStatus inverts Status.String. Unknown labels report ok=false.
func ParseStatus(label string) (Status, bool) {
	s, ok := statusNames[label]
	return s, ok
}

// MarshalJSON encodes the status as its table label, so JSONL trial
// records stay greppable and stable across reorderings of the enum.
func (s Status) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a status label.
func (s *Status) UnmarshalJSON(data []byte) error {
	var label string
	if err := json.Unmarshal(data, &label); err != nil {
		return err
	}
	v, ok := ParseStatus(label)
	if !ok {
		return fmt.Errorf("appkit: unknown status label %q", label)
	}
	*s = v
	return nil
}

// Infrastructure reports whether the status describes a harness-level
// failure (timed-out or crashed trial) rather than an application
// outcome. Infrastructure outcomes are retried by campaign supervisors;
// application outcomes are not.
func (s Status) Infrastructure() bool { return s == TrialTimeout || s == WorkerCrash }

// Buggy reports whether the status represents an observed bug.
// Infrastructure failures are not bugs: the trial produced no
// application verdict at all.
func (s Status) Buggy() bool { return s != OK && !s.Infrastructure() }

// Result is the outcome of one application run. It marshals to a flat
// JSON object (status as its label, elapsed in nanoseconds) so campaign
// workers can report it over a pipe and checkpoints can journal it.
type Result struct {
	// Status classifies the run.
	Status Status `json:"status"`
	// Detail is a human-readable elaboration (panic message, which
	// worker stalled, ...).
	Detail string `json:"detail,omitempty"`
	// Elapsed is the run's wall-clock duration (stalled runs report
	// the deadline).
	Elapsed time.Duration `json:"elapsed_ns"`
	// BPHit reports whether the run's concurrent breakpoint(s) were
	// hit.
	BPHit bool `json:"bp_hit"`
}

// String formats the result compactly.
func (r Result) String() string {
	if r.Detail == "" {
		return fmt.Sprintf("%s (%.3fs, bp=%v)", r.Status, r.Elapsed.Seconds(), r.BPHit)
	}
	return fmt.Sprintf("%s: %s (%.3fs, bp=%v)", r.Status, r.Detail, r.Elapsed.Seconds(), r.BPHit)
}

// RunWithDeadline executes f on a fresh goroutine and waits up to
// deadline for it to finish. If f panics, the panic is captured as an
// Exception result; if the deadline expires first, a Stall result is
// returned and f's goroutine is abandoned (exactly how the paper detects
// stalls: "stalls due to missed notifications are detected by large
// timeouts").
func RunWithDeadline(deadline time.Duration, f func() Result) Result {
	start := time.Now()
	ch := make(chan Result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- Result{Status: Exception, Detail: fmt.Sprint(p)}
			}
		}()
		ch <- f()
	}()
	select {
	case r := <-ch:
		r.Elapsed = time.Since(start)
		return r
	case <-time.After(deadline):
		return Result{Status: Stall, Detail: "deadline exceeded", Elapsed: deadline}
	}
}

// jitterState is the shared workload-jitter RNG state (splitmix64,
// advanced atomically so concurrent app goroutines draw independent
// values without a lock). Benchmark applications derive their simulated
// latency skews from this stream instead of wall-clock noise, so a
// campaign seeded with -seed replays the same jitter run-to-run.
var jitterState atomic.Uint64

func init() { jitterState.Store(uint64(time.Now().UnixNano()) | 1) }

// SeedJitter resets the workload-jitter RNG. The harness and the
// campaign worker call this with the per-trial seed derived from the
// campaign -seed, making trial workloads reproducible; unseeded
// processes start from wall-clock entropy.
func SeedJitter(seed int64) { jitterState.Store(streamOrigin(seed)) }

// streamOrigin maps a seed to the splitmix64 start state shared by the
// global jitter stream and every derived Stream, so "seeded from the
// appkit stream" means the same thing everywhere.
func streamOrigin(seed int64) uint64 { return uint64(seed)*2654435761 + 0x9e3779b97f4a7c15 }

// mix64 is the splitmix64 output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// jitterNext advances the splitmix64 stream one step.
func jitterNext() uint64 {
	return mix64(jitterState.Add(0x9e3779b97f4a7c15))
}

// JitterSeed draws one value from the shared jitter stream for seeding
// derived deterministic components (a chaos proxy's fault schedule, a
// load client's retry jitter), so everything a trial does descends from
// the single per-trial seed.
func JitterSeed() int64 { return int64(jitterNext()) }

// Stream is an independent, deterministic splitmix64 stream derived
// from an explicit seed. Unlike the process-global jitter stream it is
// not perturbed by unrelated goroutines, so two Streams built from the
// same seed produce identical sequences no matter what else the process
// is doing — the property the chaos layer's replayable fault schedules
// and the campaign's replayable retry backoff are built on. Draws are
// atomic, so one Stream may be shared across goroutines (the sequence
// as a whole stays deterministic; the per-goroutine interleaving does
// not, which is fine for jitter).
type Stream struct {
	state atomic.Uint64
}

// NewStream returns a deterministic stream for the seed.
func NewStream(seed int64) *Stream {
	s := &Stream{}
	s.state.Store(streamOrigin(seed))
	return s
}

// DeriveSeed maps (seed, ord) to the deterministic sub-seed for the
// ord-th component of a seeded system: pure in both arguments, so
// schedules indexed by an ordinal (the chaos proxy's per-connection
// plans, the load generator's per-client retry jitter) can be recomputed
// independently and in any order.
func DeriveSeed(seed int64, ord int64) int64 {
	return seed ^ int64(mix64(uint64(ord)+0x9e3779b97f4a7c15))
}

// DeriveStream returns the deterministic sub-stream for (seed, ord).
func DeriveStream(seed int64, ord int64) *Stream {
	return NewStream(DeriveSeed(seed, ord))
}

// Next advances the stream one step and returns the draw.
func (s *Stream) Next() uint64 {
	return mix64(s.state.Add(0x9e3779b97f4a7c15))
}

// Intn returns a draw in [0, n) (0 when n <= 0).
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.Next() % uint64(n))
}

// Float64 returns a draw in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}

// Duration returns a draw in [0, scale) (zero when scale <= 0).
func (s *Stream) Duration(scale time.Duration) time.Duration {
	if scale <= 0 {
		return 0
	}
	return time.Duration(s.Next() % uint64(scale))
}

// Backoff returns the jittered exponential delay after n failures: base
// doubled n times (none when n <= 0), capped at max (a non-positive
// delay also becomes max), then jittered into [d/2, d] by one draw from
// the stream. Retry loops seeded from one stream replay identical
// delays, and herds of clients backing off together spread out.
func (s *Stream) Backoff(base, max time.Duration, n int) time.Duration {
	d := base
	for i := 0; i < n && d < max; i++ {
		d *= 2
	}
	if d <= 0 || d > max {
		d = max
	}
	half := d / 2
	return half + s.Duration(half+1)
}

// JitterDuration returns a pseudo-random duration in [0, scale) from the
// seedable jitter stream (zero when scale <= 0).
func JitterDuration(scale time.Duration) time.Duration {
	if scale <= 0 {
		return 0
	}
	return time.Duration(jitterNext() % uint64(scale))
}

// Busy performs n iterations of deterministic thread-local computation
// and returns its result. Workloads use it for the local work a thread
// does between its shared accesses. Unlike a sleep, it does not round up
// to the timer tick (which wakes two sleep-paced threads together), and
// it scales with the machine like the instrumented shared accesses do,
// so the share of a thread's time spent inside a race window is about
// the same on any machine. It is kept out of line so that a caller that
// discards the result still pays for the work.
//
//go:noinline
func Busy(n int) int64 {
	var acc int64 = 1
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return acc
}

// Progress counts the steps a goroutine completes, so that another
// goroutine can wait until it has moved past a point without assuming
// anything about timing. A writer that perturbs shared state uses it to
// restore the state only after the reader has finished the step the
// perturbation landed in. Done marks the counted goroutine as finished,
// normally or by panicking, so a waiter never waits for a goroutine that
// is gone. The zero value is ready to use.
type Progress struct {
	steps atomic.Int64
	done  atomic.Bool
}

// Step records one completed step.
func (p *Progress) Step() { p.steps.Add(1) }

// Done marks the counted goroutine as finished.
func (p *Progress) Done() { p.done.Store(true) }

// Finished reports whether Done has been called.
func (p *Progress) Finished() bool { return p.done.Load() }

// Steps returns the number of completed steps.
func (p *Progress) Steps() int64 { return p.steps.Load() }

// AwaitPast blocks until more than mark steps have completed or the
// counted goroutine is done, checking back every millisecond.
func (p *Progress) AwaitPast(mark int64) {
	for p.steps.Load() <= mark && !p.Finished() {
		time.Sleep(time.Millisecond)
	}
}
