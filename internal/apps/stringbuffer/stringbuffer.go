// Package stringbuffer reproduces the classic atomicity violation in
// java.lang.StringBuffer.append (Figure 3 of the paper): append(sb)
// reads sb's length (line 444) and then calls sb.getChars(0, len, ...)
// (line 449) under separate acquisitions of sb's monitor. A concurrent
// sb.setLength(0) (line 239) between the two calls makes len stale and
// getChars throws StringIndexOutOfBoundsException.
//
// The breakpoint (239, 449, t1.sb == t2.this) — setLength ordered before
// getChars while the appender sits between its two reads — makes the
// exception deterministic (Table 1 row "stringbuffer / atomicity1 /
// exception").
package stringbuffer

import (
	"fmt"
	"strings"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
)

// BreakpointName identifies the atomicity breakpoint in engine
// statistics.
const BreakpointName = "stringbuffer.atomicity1"

// Buffer is a synchronized string buffer: every public method holds the
// buffer's monitor, exactly like java.lang.StringBuffer, so each method
// is individually atomic but sequences of methods are not.
type Buffer struct {
	mu   *locks.Mutex
	data []byte
}

// New returns a buffer initialized with s.
func New(name, s string) *Buffer {
	return &Buffer{mu: locks.NewMutex(name), data: []byte(s)}
}

// Length returns the current length (synchronized; Figure 3 line 143).
func (b *Buffer) Length() int {
	b.mu.LockAt("StringBuffer.java:143")
	defer b.mu.Unlock()
	return len(b.data)
}

// GetChars copies [start, end) into dst (synchronized; Figure 3 line
// 322). Like the Java method it panics when end exceeds the current
// length — the manifestation of the atomicity violation.
func (b *Buffer) GetChars(start, end int, dst []byte) {
	b.mu.LockAt("StringBuffer.java:322")
	defer b.mu.Unlock()
	if start < 0 || end > len(b.data) || start > end {
		panic(fmt.Sprintf("StringIndexOutOfBounds: srcEnd=%d length=%d", end, len(b.data)))
	}
	copy(dst, b.data[start:end])
}

// SetLength truncates or zero-extends the buffer (synchronized; Figure 3
// line 239).
func (b *Buffer) SetLength(n int) {
	b.mu.LockAt("StringBuffer.java:239")
	defer b.mu.Unlock()
	b.setLengthLocked(n)
}

func (b *Buffer) setLengthLocked(n int) {
	if n < 0 {
		panic("negative length")
	}
	for len(b.data) < n {
		b.data = append(b.data, 0)
	}
	b.data = b.data[:n]
}

// String returns the buffer contents (synchronized).
func (b *Buffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.data)
}

// Append appends sb's contents (Figure 3 line 437). The length read
// (line 444) and the character copy (line 449) acquire sb's monitor
// separately: the atomicity bug. cfg carries the breakpoint engine; when
// breakpoints are enabled, the second side of the (239, 449) breakpoint
// sits between the two acquisitions.
func (b *Buffer) Append(sb *Buffer, cfg *Config) {
	ln := sb.Length() // line 444
	if cfg != nil && cfg.Breakpoint {
		cfg.Engine.TriggerHere(core.NewAtomicityTrigger(BreakpointName, sb), false,
			core.Options{Timeout: cfg.Timeout})
	}
	tmp := make([]byte, ln)
	sb.GetChars(0, ln, tmp) // line 449 — panics if len is stale
	b.mu.With(func() { b.data = append(b.data, tmp...) })
}

// Config parameterizes a run.
type Config struct {
	// Engine is the breakpoint engine (required when Breakpoint).
	Engine *core.Engine
	// Breakpoint inserts the (239, 449) concurrent breakpoint.
	Breakpoint bool
	// Timeout is the breakpoint pause time (zero = engine default).
	Timeout time.Duration
	// Payload sizes the shared buffer (default 64 characters).
	Payload int
}

func (c *Config) payload() string {
	n := c.Payload
	if n <= 0 {
		n = 64
	}
	return strings.Repeat("x", n)
}

// Run executes the two-thread append/setLength scenario once and reports
// whether the atomicity violation manifested (Exception) or not (OK).
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	sb := New("sb", cfg.payload())
	dst := New("dst", "")

	res := appkit.RunWithDeadline(30*time.Second, func() appkit.Result {
		errCh := make(chan any, 2)
		run := func(f func()) {
			go func() {
				defer func() { errCh <- recover() }()
				f()
			}()
		}
		run(func() { dst.Append(sb, &cfg) })
		run(func() {
			if cfg.Breakpoint {
				// First-action side: setLength's truncation runs before
				// the appender's getChars.
				cfg.Engine.TriggerHereAnd(core.NewAtomicityTrigger(BreakpointName, sb), true,
					core.Options{Timeout: cfg.Timeout}, func() { sb.SetLength(0) })
			} else {
				sb.SetLength(0)
			}
		})
		for i := 0; i < 2; i++ {
			if p := <-errCh; p != nil {
				return appkit.Result{Status: appkit.Exception, Detail: fmt.Sprint(p)}
			}
		}
		return appkit.Result{Status: appkit.OK}
	})
	res.BPHit = cfg.Engine.Stats(BreakpointName).Hits() > 0
	return res
}
