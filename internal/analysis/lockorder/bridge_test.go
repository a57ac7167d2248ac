package lockorder

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"cbreak/internal/analysis/load"
	"cbreak/internal/apps/mysql"
	"cbreak/internal/core"
	"cbreak/internal/waitgraph"
)

// The static analyzer and the runtime wait-graph supervisor must agree
// on the mysql FLUSH-vs-DML deadlock: the cycle lockorder predicts from
// source alone names the same lock classes the supervisor observes when
// the deadlock actually wedges two goroutines.
func TestStaticCycleMatchesRuntimeWaitGraph(t *testing.T) {
	// Static side: analyze the mysql package and pick out the
	// binlog/catalog cycle.
	loader, err := load.New(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir := filepath.Join(loader.ModuleRoot(), "internal", "apps", "mysql")
	units, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading mysql package: %v", err)
	}
	var static []string
	for _, c := range staticCycles(units) {
		for _, class := range c.Classes {
			if class == "mysql.binlog" {
				static = append([]string{}, c.Classes...)
			}
		}
	}
	if static == nil {
		t.Fatal("lockorder found no cycle naming mysql.binlog")
	}
	sort.Strings(static)
	if want := []string{"mysql.binlog", "mysql.catalog"}; strings.Join(static, ",") != strings.Join(want, ",") {
		t.Fatalf("static cycle classes = %v, want %v", static, want)
	}

	// Runtime side: run the repro under a wait-graph supervisor until
	// the deadlock is confirmed, then compare lock-class sets.
	e := core.NewEngine()
	sup := waitgraph.New(e, waitgraph.Config{Interval: time.Millisecond})
	sup.Start()
	defer sup.Stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		mysql.Run(mysql.Config{Engine: e, Bug: mysql.Deadlock, Breakpoint: true,
			Timeout: 2 * time.Second, StallAfter: 1500 * time.Millisecond})
	}()
	select {
	case <-sup.Confirmed():
	case <-time.After(10 * time.Second):
		t.Fatal("wait graph never confirmed the mysql deadlock")
	}
	var runtime []string
	for _, r := range sup.Reports() {
		for _, l := range r.Locks {
			if l == "mysql.binlog" {
				runtime = append([]string{}, r.Locks...)
			}
		}
	}
	if runtime == nil {
		t.Fatalf("no runtime report names mysql.binlog: %v", sup.Reports())
	}
	sort.Strings(runtime)

	if strings.Join(static, ",") != strings.Join(runtime, ",") {
		t.Fatalf("static cycle %v != runtime wait-graph cycle %v", static, runtime)
	}
	<-done
}

// staticCycles runs the collection and graph build over already-loaded
// units and returns every lock-order cycle, ignoring suppressions. The
// lockorder↔waitgraph bridge test uses it to compare static findings
// with runtime deadlock signatures.
func staticCycles(units []*load.Unit) []Cycle {
	st := newState()
	for _, u := range units {
		st.collectUnit(u)
	}
	return st.cycles()
}
