package cbreak

import (
	"testing"
	"time"
)

// TestFacadeHardening exercises the hardening surface end to end on the
// default engine: fault injection, panic isolation, the incident log,
// the timeout-rate trip, and stats snapshots.
func TestFacadeHardening(t *testing.T) {
	Reset()
	SetEnabled(true)
	defer func() {
		SetFaultInjector(nil)
		SetOverloadConfig(nil)
		SetIsolateActionPanics(false)
		Reset()
	}()

	basePanics := IncidentCount(KindPanic)

	// Panic isolation via an injected local-predicate panic.
	SetFaultInjector(NewFaultPlan().PanicLocal("facade.bp", FirstSide, 1))
	if hit := TriggerHere(NewConflictTrigger("facade.bp", new(int)), true, time.Millisecond); hit {
		t.Fatal("panicked trigger reported a hit")
	}
	if got := IncidentCount(KindPanic); got != basePanics+1 {
		t.Fatalf("panic incidents = %d, want %d", got, basePanics+1)
	}

	SetFaultInjector(nil)

	// The trip opens on a 100%-timeout breakpoint after 8 outcomes and
	// reports via the facade.
	SetOverloadConfig(&OverloadConfig{TimeoutRate: 0.9})
	for i := 0; i < 8; i++ {
		TriggerHere(NewConflictTrigger("facade.bp", new(int)), true, time.Millisecond)
	}
	snap, ok := BreakerStatus("facade.bp")
	if !ok || snap.State != BreakerOpen {
		t.Fatalf("BreakerStatus = %v/%v, want open", snap.State, ok)
	}
	if len(Incidents()) == 0 {
		t.Fatal("Incidents() empty after panics and trips")
	}

	found := false
	for _, s := range SnapshotStats() {
		if s.Name == "facade.bp" {
			found = true
			if s.Panics == 0 || s.Trips == 0 {
				t.Fatalf("snapshot %+v missing hardening counters", s)
			}
		}
	}
	if !found {
		t.Fatal("SnapshotStats missing facade.bp")
	}
}
