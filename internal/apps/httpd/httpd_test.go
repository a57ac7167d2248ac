package httpd

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

func TestHandleServesAndLogs(t *testing.T) {
	cfg := quietCfg()
	srv := NewServer(cfg)
	if err := srv.Handle(Request{ID: 1, Path: "/a"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Handle(Request{ID: 2, Path: "/b"}, 1); err != nil {
		t.Fatal(err)
	}
	intact, raw := srv.log.Lines()
	if intact != 2 {
		t.Fatalf("intact lines = %d\n%s", intact, raw)
	}
	if !strings.Contains(raw, "id=1 path=/a") {
		t.Fatalf("log missing entry: %s", raw)
	}
	if srv.served.Load("t") != 2 {
		t.Fatal("served counter wrong")
	}
}

func TestReloadShrinksBuffer(t *testing.T) {
	cfg := quietCfg()
	srv := NewServer(cfg)
	srv.Reload(1 << 10)
	if got := srv.conn.capacity.Load("t"); got != 1<<10 {
		t.Fatalf("capacity = %d", got)
	}
	if got := len(*srv.conn.backing.Load("t")); got != 1<<10 {
		t.Fatalf("backing = %d", got)
	}
	// A big response after a completed reload is clipped, not a crash.
	if err := srv.Handle(Request{ID: 3, Path: "/big", Big: true}, 0); err != nil {
		t.Fatalf("post-reload big request crashed: %v", err)
	}
}

func TestLogCorruptionReproduces(t *testing.T) {
	for i := 0; i < 5; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Bug: LogCorruption, Breakpoint: true,
			Timeout: 500 * time.Millisecond})
		if r.Status != appkit.LogCorrupt || !r.BPHit {
			t.Fatalf("run %d: %s", i, r)
		}
	}
}

func TestServerCrashReproduces(t *testing.T) {
	for i := 0; i < 5; i++ {
		e := core.NewEngine()
		r := Run(Config{Engine: e, Bug: ServerCrash, Breakpoint: true,
			Timeout: 500 * time.Millisecond})
		if r.Status != appkit.Crash || !r.BPHit {
			t.Fatalf("run %d: %s", i, r)
		}
		if !strings.Contains(r.Detail, "buffer overflow") {
			t.Fatalf("run %d: detail %q", i, r.Detail)
		}
	}
}

func TestWithoutBreakpointsMostlyOK(t *testing.T) {
	// Measured no-breakpoint rates (EXPERIMENTS.md, 300 runs each): log
	// corruption 4/300 at GOMAXPROCS=2 and 0/300 at 1, server crash
	// 0/300 at both. A bug fails the test at 3 of 5 runs: 2e-5 at 4/300.
	for _, bug := range []Bug{LogCorruption, ServerCrash} {
		bugs := 0
		for i := 0; i < 5; i++ {
			e := core.NewEngine()
			e.SetEnabled(false)
			if Run(Config{Engine: e, Bug: bug}).Status.Buggy() {
				bugs++
			}
		}
		if bugs > 2 {
			t.Errorf("bug %v manifested %d/5 without breakpoints", bug, bugs)
		}
	}
}
