package cbreak_test

// Facade audit tests: every introspection accessor the internal engine
// grew across the supervision, overload, durability, and telemetry
// layers must be reachable from the public package, exercised here
// against the default engine.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"cbreak"
)

// hitDefault rendezvouses one hit on the default engine.
func hitDefault(t *testing.T, name string) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cbreak.TriggerHere(cbreak.NewPredTrigger(name, nil, nil, nil), true, 2*time.Second)
	}()
	if !cbreak.TriggerHere(cbreak.NewPredTrigger(name, nil, nil, nil), false, 2*time.Second) {
		t.Fatalf("%s: second side missed", name)
	}
	wg.Wait()
}

func TestIntrospectionPassthroughs(t *testing.T) {
	cbreak.Reset()
	defer cbreak.Reset()

	if _, ok := cbreak.Overload(); ok {
		t.Fatal("fresh engine reports overload config")
	}
	cbreak.SetOverloadConfig(&cbreak.OverloadConfig{GlobalHighWater: 32})
	defer cbreak.SetOverloadConfig(nil)
	if ov, ok := cbreak.Overload(); !ok || ov.GlobalHighWater != 32 {
		t.Fatalf("Overload() = %+v, %v", ov, ok)
	}

	sub := cbreak.Telemetry().Subscribe(64) // room for every record of one hit pair
	hitDefault(t, "facade.intro")
	sub.Cancel()
	if cbreak.Stats("facade.intro").Hits() != 1 {
		t.Fatal("Stats passthrough missed the hit")
	}
	events := 0
	for drained := false; !drained; {
		select {
		case rec := <-sub.C():
			if rec.Kind == cbreak.RecordEvent && rec.Event.Breakpoint == "facade.intro" {
				events++
			}
		default:
			drained = true
		}
	}
	if events == 0 {
		t.Fatal("Telemetry passthrough carried no events for a hit")
	}
	if cbreak.PostponedCount("facade.intro") != 0 || cbreak.MultiPostponedCount("facade.intro") != 0 {
		t.Fatal("postponed counts nonzero at rest")
	}
	if !strings.Contains(cbreak.EngineReport(), "facade.intro") {
		t.Fatal("EngineReport missing the breakpoint row")
	}
	if cbreak.DurableSinkInstalled() {
		t.Fatal("no sink installed, but reported")
	}

	// IncidentCounts is monotonic across Reset; a release that finds no
	// waiter must not move it.
	before := cbreak.IncidentCounts()[cbreak.KindWatchdogRelease.String()]
	if cbreak.ForceRelease("facade.intro", 1, cbreak.KindWatchdogRelease, "noop") {
		t.Fatal("release of a non-postponed gid reported true")
	}
	if after := cbreak.IncidentCounts()[cbreak.KindWatchdogRelease.String()]; after != before {
		t.Fatalf("no-op release moved incident count %d -> %d", before, after)
	}
}

func TestBreakpointToggleOnFacade(t *testing.T) {
	cbreak.Reset()
	defer cbreak.Reset()
	const name = "facade.toggle"
	if !cbreak.BreakpointEnabled(name) {
		t.Fatal("unseen breakpoint should report enabled")
	}
	cbreak.SetBreakpointEnabled(name, false)
	if cbreak.BreakpointEnabled(name) {
		t.Fatal("disable did not stick")
	}
	if cbreak.TriggerHere(cbreak.NewPredTrigger(name, nil, nil, nil), true, time.Millisecond) {
		t.Fatal("disabled breakpoint hit")
	}
	if cbreak.Stats(name).Arrivals() != 0 {
		t.Fatal("disabled arrival counted")
	}
	cbreak.SetBreakpointEnabled(name, true)
	hitDefault(t, name)
}

func TestTelemetryFacade(t *testing.T) {
	cbreak.Reset()
	defer cbreak.Reset()

	sub := cbreak.Telemetry().Subscribe(64)
	defer sub.Cancel()
	hitDefault(t, "facade.telemetry")

	deadline := time.After(2 * time.Second)
	var sawHit bool
	for !sawHit {
		select {
		case rec := <-sub.C():
			if rec.Kind == cbreak.RecordEvent && rec.Event.Breakpoint == "facade.telemetry" {
				sawHit = true
			}
		case <-deadline:
			t.Fatal("no telemetry record for the hit")
		}
	}

	reg := cbreak.NewMetricRegistry()
	cbreak.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `cbreak_bp_hits_total{breakpoint="facade.telemetry"} 1`) {
		t.Fatalf("exposition missing facade hit counter:\n%s", sb.String())
	}
}

func TestWaitGraphFacade(t *testing.T) {
	cbreak.Reset()
	defer cbreak.Reset()

	sup := cbreak.StartSupervisor(cbreak.WaitGraphConfig{Interval: time.Millisecond})
	defer sup.Stop()
	if sup.Scans() == 0 {
		sup.Scan()
	}
	if sup.Scans() == 0 {
		t.Fatal("supervisor never scanned")
	}
	if got := sup.Reports(); len(got) != 0 {
		t.Fatalf("idle engine produced reports: %+v", got)
	}
	// Kind constants are re-exported.
	if cbreak.ReportDeadlock == cbreak.ReportPostponeStall {
		t.Fatal("report kinds collide")
	}
}
