package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"cbreak/internal/guard"
	"cbreak/internal/telemetry"
)

// hitPair rendezvouses one two-way breakpoint hit on e and returns both
// outcomes.
func hitPair(t *testing.T, e *Engine, name string) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.TriggerHere(NewPredTrigger(name, nil, nil, nil), true, Options{Timeout: 2 * time.Second})
	}()
	if !e.TriggerHere(NewPredTrigger(name, nil, nil, nil), false, Options{Timeout: 2 * time.Second}) {
		t.Fatalf("%s: second side missed", name)
	}
	wg.Wait()
}

type recordingTap struct {
	mu   sync.Mutex
	recs []telemetry.Record
}

func (r *recordingTap) Deliver(rec telemetry.Record) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// events returns the engine events the tap received, in delivery
// order.
func (r *recordingTap) events() []Event {
	var out []Event
	for _, rec := range r.byKind(telemetry.RecordEvent) {
		out = append(out, rec.Event)
	}
	return out
}

func (r *recordingTap) byKind(k telemetry.RecordKind) []telemetry.Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []telemetry.Record
	for _, rec := range r.recs {
		if rec.Kind == k {
			out = append(out, rec)
		}
	}
	return out
}

func TestBusCarriesEventsAndIncidents(t *testing.T) {
	e := NewEngine()
	tap := &recordingTap{}
	h := e.Bus().AttachTap(tap)
	defer h.Detach()
	sub := e.Bus().Subscribe(64) // room for every record of one hit pair
	defer sub.Cancel()

	hitPair(t, e, "bus.bp")
	e.RecordIncident(guard.KindStall, "bus.bp", 0, "test incident")

	evs := tap.byKind(telemetry.RecordEvent)
	if len(evs) == 0 {
		t.Fatal("no events on the bus")
	}
	var sawHit bool
	for _, rec := range evs {
		if rec.Event.Kind == EventHit && rec.Event.Breakpoint == "bus.bp" {
			sawHit = true
		}
	}
	if !sawHit {
		t.Error("bus missed the hit event")
	}
	// The tap and the subscription must agree (same emission site).
	subN := 0
	for drained := false; !drained; {
		select {
		case rec := <-sub.C():
			if rec.Kind == telemetry.RecordEvent {
				subN++
			}
		default:
			drained = true
		}
	}
	if tapN := len(evs); subN != tapN {
		t.Errorf("subscription has %d events, tap saw %d", subN, tapN)
	}

	ins := tap.byKind(telemetry.RecordIncident)
	if len(ins) != 1 || ins[0].Incident.Kind != guard.KindStall {
		t.Fatalf("bus incidents = %+v, want one stall", ins)
	}
}

// recordingSink implements DurableSink.
type recordingSink struct {
	mu        sync.Mutex
	events    []Event
	incidents []guard.Incident
}

func (s *recordingSink) RecordEvent(ev Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

func (s *recordingSink) RecordIncident(in guard.Incident) {
	s.mu.Lock()
	s.incidents = append(s.incidents, in)
	s.mu.Unlock()
}

func TestDurableSinkRidesTheBus(t *testing.T) {
	e := NewEngine()
	if e.DurableSinkInstalled() {
		t.Fatal("fresh engine reports a sink")
	}
	sink := &recordingSink{}
	e.SetDurableSink(sink)
	if !e.DurableSinkInstalled() {
		t.Fatal("sink not reported installed")
	}

	hitPair(t, e, "durable.bp")
	e.RecordIncident(guard.KindPanic, "durable.bp", 0, "boom")

	sink.mu.Lock()
	nev, nin := len(sink.events), len(sink.incidents)
	sink.mu.Unlock()
	if nev == 0 || nin != 1 {
		t.Fatalf("sink saw %d events, %d incidents", nev, nin)
	}

	// Removing the sink detaches the tap.
	e.SetDurableSink(nil)
	if e.DurableSinkInstalled() {
		t.Fatal("sink still reported after removal")
	}
	hitPair(t, e, "durable.bp2")
	sink.mu.Lock()
	after := len(sink.events)
	sink.mu.Unlock()
	if after != nev {
		t.Fatalf("removed sink still receiving events: %d -> %d", nev, after)
	}

	// Replacing swaps in one tap, not two.
	s2 := &recordingSink{}
	e.SetDurableSink(&recordingSink{})
	e.SetDurableSink(s2)
	hitPair(t, e, "durable.bp3")
	s2.mu.Lock()
	got := 0
	for _, ev := range s2.events {
		if ev.Kind == EventHit {
			got++
		}
	}
	s2.mu.Unlock()
	if got != 1 {
		t.Fatalf("replacement sink saw %d hit events, want 1", got)
	}
}

func TestSetBreakpointEnabled(t *testing.T) {
	e := NewEngine()
	const name = "toggle.bp"
	if !e.BreakpointEnabled(name) {
		t.Fatal("unseen breakpoint should report enabled")
	}

	// Pre-disable before first arrival.
	e.SetBreakpointEnabled(name, false)
	if e.BreakpointEnabled(name) {
		t.Fatal("breakpoint still enabled after disable")
	}
	ran := false
	out := e.TriggerOutcome(NewPredTrigger(name, nil, nil, nil), true, Options{Timeout: 10 * time.Millisecond})
	if out != OutcomeDisabled {
		t.Fatalf("disabled breakpoint outcome = %v, want OutcomeDisabled", out)
	}
	// Actions still run on the disabled path, exactly like an
	// engine-wide disable.
	if e.TriggerHereAnd(NewPredTrigger(name, nil, nil, nil), true, Options{}, func() { ran = true }) {
		t.Fatal("disabled breakpoint reported a hit")
	}
	if !ran {
		t.Fatal("action skipped on disabled breakpoint")
	}
	// Multi-way honors the flag too.
	if e.TriggerHereMulti(NewPredTrigger(name, nil, nil, nil), 0, 2, Options{Timeout: time.Millisecond}) {
		t.Fatal("disabled multi-way arrival hit")
	}
	if got := e.Stats(name).Arrivals(); got != 0 {
		t.Fatalf("disabled arrivals counted: %d", got)
	}

	// Other breakpoints are unaffected.
	hitPair(t, e, "toggle.other")

	// Re-enable: the breakpoint works again.
	e.SetBreakpointEnabled(name, true)
	if !e.BreakpointEnabled(name) {
		t.Fatal("breakpoint still disabled after enable")
	}
	hitPair(t, e, name)
	if e.Stats(name).Hits() != 1 {
		t.Fatal("re-enabled breakpoint did not hit")
	}

	// Reset discards the flag with the rest of the shard state.
	e.SetBreakpointEnabled(name, false)
	e.Reset()
	if !e.BreakpointEnabled(name) {
		t.Fatal("disable survived Reset")
	}
}

func TestBreakpointDisabledOnHandle(t *testing.T) {
	e := NewEngine()
	const name = "toggle.handle"
	bp := e.Breakpoint(name)
	e.SetBreakpointEnabled(name, false)
	if bp.Trigger(NewPredTrigger(name, nil, nil, nil), true, Options{Timeout: time.Millisecond}) {
		t.Fatal("handle arrival hit a disabled breakpoint")
	}
	if e.Stats(name).Arrivals() != 0 {
		t.Fatal("handle arrival on disabled breakpoint was counted")
	}
}

func TestRegisterMetricsExposesEngineState(t *testing.T) {
	e := NewEngine()
	e.SetOverloadConfig(&OverloadConfig{GlobalHighWater: 100, SoftWater: 40, MaxPerShard: 10})
	reg := telemetry.NewRegistry()
	e.RegisterMetrics(reg)
	reg.WireBus("engine", e.Bus())

	hitPair(t, e, "metrics.bp")
	// One timed-out postponement, to populate the wait histogram.
	e.TriggerOutcome(NewPredTrigger("metrics.slow", nil, nil, nil), true, Options{Timeout: 2 * time.Millisecond})
	e.RecordIncident(guard.KindStall, "metrics.bp", 0, "x")
	e.SetBreakpointEnabled("metrics.off", false)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"cbreak_engine_enabled 1",
		"cbreak_postponed_waiters 0",
		"cbreak_overload_global_high_water 100",
		"cbreak_overload_soft_water 40",
		"cbreak_overload_max_per_shard 10",
		`cbreak_bp_hits_total{breakpoint="metrics.bp"} 1`,
		`cbreak_bp_arrivals_total{breakpoint="metrics.bp"} 2`,
		`cbreak_bp_timeouts_total{breakpoint="metrics.slow"} 1`,
		`cbreak_bp_enabled{breakpoint="metrics.off"} 0`,
		`cbreak_bp_enabled{breakpoint="metrics.bp"} 1`,
		`cbreak_bp_wait_seconds_count{breakpoint="metrics.slow"} 1`,
		`cbreak_incidents_total{kind="stall"} 1`,
		`cbreak_bus_records_total{kind="guard-incident"} 1`,
		`cbreak_bp_last_hit_timestamp_seconds{breakpoint="metrics.bp"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

func TestSnapshotWaitHistogram(t *testing.T) {
	e := NewEngine()
	e.TriggerOutcome(NewPredTrigger("hist.bp", nil, nil, nil), true, Options{Timeout: 2 * time.Millisecond})
	snap := e.Stats("hist.bp").Snapshot()
	if snap.WaitCount != 1 {
		t.Fatalf("WaitCount = %d, want 1", snap.WaitCount)
	}
	if len(snap.WaitHist) != telemetry.NumWaitBuckets {
		t.Fatalf("WaitHist has %d buckets, want %d", len(snap.WaitHist), telemetry.NumWaitBuckets)
	}
	var total int64
	for _, n := range snap.WaitHist {
		total += n
	}
	if total != 1 {
		t.Fatalf("bucketed observations = %d, want 1 (wait ~2ms fits the bounds)", total)
	}
}
