package stringbuffer

import (
	"strings"
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
)

func TestBufferBasics(t *testing.T) {
	b := New("b", "hello")
	if b.Length() != 5 {
		t.Fatalf("Length = %d", b.Length())
	}
	dst := make([]byte, 5)
	b.GetChars(0, 5, dst)
	if string(dst) != "hello" {
		t.Fatalf("GetChars = %q", dst)
	}
	b.Append(New("w", " world"), nil)
	if b.String() != "hello world" {
		t.Fatalf("String = %q", b.String())
	}
	b.SetLength(5)
	if b.String() != "hello" {
		t.Fatalf("after SetLength: %q", b.String())
	}
	b.SetLength(7)
	if b.Length() != 7 {
		t.Fatalf("zero-extend failed: %d", b.Length())
	}
}

func TestGetCharsOutOfRangePanics(t *testing.T) {
	b := New("b", "ab")
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "StringIndexOutOfBounds") {
			t.Fatalf("panic = %v", p)
		}
	}()
	b.GetChars(0, 3, make([]byte, 3))
}

func TestSetLengthNegativePanics(t *testing.T) {
	b := New("b", "ab")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative length")
		}
	}()
	b.SetLength(-1)
}

func TestSequentialAppendIsCorrect(t *testing.T) {
	sb := New("sb", "abc")
	dst := New("dst", "")
	dst.Append(sb, nil)
	if dst.String() != "abc" {
		t.Fatalf("Append result = %q", dst.String())
	}
}

func TestBreakpointReproducesException(t *testing.T) {
	// Paper Table 1: stringbuffer atomicity1 -> exception with
	// probability 1.00.
	hits := 0
	for i := 0; i < 10; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Breakpoint: true, Timeout: 500 * time.Millisecond})
		if r.Status == appkit.Exception {
			hits++
			if !r.BPHit {
				t.Fatalf("exception without breakpoint hit: %s", r)
			}
			if !strings.Contains(r.Detail, "StringIndexOutOfBounds") {
				t.Fatalf("wrong exception: %s", r.Detail)
			}
		}
	}
	if hits != 10 {
		t.Fatalf("exception reproduced %d/10 times, want 10/10", hits)
	}
}

func TestWithoutBreakpointUsuallyOK(t *testing.T) {
	// The natural race window is a few instructions; without the
	// breakpoint the run should almost always complete OK.
	bugs := 0
	for i := 0; i < 20; i++ {
		e := core.NewEngine()
		e.SetEnabled(false)
		if Run(Config{Engine: e}).Status != appkit.OK {
			bugs++
		}
	}
	if bugs > 5 {
		t.Fatalf("bug manifested %d/20 times without breakpoint", bugs)
	}
}

func TestRunDefaultEngine(t *testing.T) {
	r := Run(Config{Payload: 8})
	_ = r // must not panic or hang; status depends on schedule
}

func TestAppendAtomicFixSurvivesTheScenario(t *testing.T) {
	// The regression-test story: after the fix, the same concurrent
	// scenario never throws, even with the breakpoint machinery active.
	for i := 0; i < 10; i++ {
		e := core.NewEngine()
		cfg := &Config{Engine: e, Breakpoint: true, Timeout: 20 * time.Millisecond}
		sb := New("sb", "hello world")
		dst := New("dst", "")
		errCh := make(chan any, 2)
		go func() {
			defer func() { errCh <- recover() }()
			dst.appendAtomic(sb, cfg)
		}()
		go func() {
			defer func() { errCh <- recover() }()
			e.TriggerHereAnd(core.NewAtomicityTrigger(BreakpointName+".fixed", sb), true,
				core.Options{Timeout: 20 * time.Millisecond}, func() { sb.SetLength(0) })
		}()
		for j := 0; j < 2; j++ {
			if p := <-errCh; p != nil {
				t.Fatalf("run %d: fixed append still throws: %v", i, p)
			}
		}
	}
}

// appendAtomic is the repaired append: it holds sb's monitor across the
// length read and the character copy, so no setLength can interleave.
// With the fix in place the (239, 449) breakpoint can still be hit, but
// hitting it no longer produces the exception — which is exactly what
// the paper's regression-test use case checks for after a fix.
func (b *Buffer) appendAtomic(sb *Buffer, cfg *Config) {
	sb.mu.LockAt("StringBuffer.java:appendAtomic")
	ln := len(sb.data)
	if cfg != nil && cfg.Breakpoint {
		// The breakpoint site remains, but the monitor is held: the
		// interleaving the breakpoint asks for is no longer feasible,
		// so the trigger times out (the local state can still be
		// inspected by tooling).
		cfg.Engine.TriggerHere(core.NewAtomicityTrigger(BreakpointName+".fixed", sb), false,
			core.Options{Timeout: cfg.Timeout})
	}
	tmp := make([]byte, ln)
	copy(tmp, sb.data[:ln])
	sb.mu.Unlock()
	b.mu.With(func() { b.data = append(b.data, tmp...) })
}
