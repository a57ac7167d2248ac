package logging

import (
	"strings"
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
)

func quietCfg() *Config {
	e := core.NewEngine()
	e.SetEnabled(false)
	return &Config{Engine: e}
}

func TestLogLevelFiltering(t *testing.T) {
	h := NewHandler(Info)
	l := NewLogger(Fine, h, quietCfg())
	l.Log(Record{Level: Fine, Message: "debug"}) // logger passes, handler filters
	l.Log(Record{Level: Info, Message: "hello"})
	l.Log(Record{Level: Warning, Message: "boom"})
	recs := h.records
	if len(recs) != 2 {
		t.Fatalf("records = %v", recs)
	}
	if !strings.Contains(recs[0], "hello") || !strings.Contains(recs[1], "boom") {
		t.Fatalf("records = %v", recs)
	}
}

func TestLoggerLevelFilters(t *testing.T) {
	h := NewHandler(Fine)
	l := NewLogger(Warning, h, quietCfg())
	l.Log(Record{Level: Info, Message: "suppressed"})
	if len(h.records) != 0 {
		t.Fatal("logger-level filtering broken")
	}
}

func TestReconfigure(t *testing.T) {
	h := NewHandler(Fine)
	l := NewLogger(Info, h, quietCfg())
	l.Reconfigure(Warning)
	l.Log(Record{Level: Info, Message: "now filtered"})
	if len(h.records) != 0 {
		t.Fatal("reconfigured level not applied")
	}
}

func TestDeadlockBreakpointReproducesStall(t *testing.T) {
	for i := 0; i < 5; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Breakpoint: true,
			Timeout: 500 * time.Millisecond, StallAfter: 300 * time.Millisecond})
		if r.Status != appkit.Stall || !r.BPHit {
			t.Fatalf("run %d: %s", i, r)
		}
	}
}

func TestWithoutBreakpointMostlyOK(t *testing.T) {
	bugs := 0
	for i := 0; i < 10; i++ {
		e := core.NewEngine()
		e.SetEnabled(false)
		if Run(Config{Engine: e, StallAfter: 500 * time.Millisecond}).Status.Buggy() {
			bugs++
		}
	}
	if bugs > 3 {
		t.Fatalf("deadlock manifested %d/10 without breakpoint", bugs)
	}
}
