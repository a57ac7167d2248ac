package guard

import (
	"fmt"
	"testing"
	"time"
)

func TestIncidentLogRingAndCounts(t *testing.T) {
	var log IncidentLog
	if snap := log.Snapshot(); snap != nil {
		t.Fatalf("empty log Snapshot = %v, want nil", snap)
	}
	// Before the ring wraps it holds every incident, oldest first, and
	// no more room than it has used.
	const early = 3
	for i := 0; i < early; i++ {
		log.Record(Incident{Kind: KindPanic, Breakpoint: fmt.Sprintf("bp%d", i)})
	}
	snap := log.Snapshot()
	if len(snap) != early {
		t.Fatalf("unwrapped Snapshot len = %d, want %d", len(snap), early)
	}
	for i, in := range snap {
		if want := fmt.Sprintf("bp%d", i); in.Breakpoint != want {
			t.Fatalf("unwrapped Snapshot[%d] = %s, want %s", i, in.Breakpoint, want)
		}
	}
	if c := cap(log.buf); c >= incidentLogCapacity {
		t.Fatalf("ring of %d incidents reserved %d entries, want it to grow as they arrive", early, c)
	}

	// Once wrapped it keeps the newest incidentLogCapacity, oldest first.
	const n = incidentLogCapacity + 50
	for i := early; i < n; i++ {
		log.Record(Incident{Kind: KindPanic, Breakpoint: fmt.Sprintf("bp%d", i)})
	}
	log.Record(Incident{Kind: KindStall, Breakpoint: "stall"})

	if got := log.Count(KindPanic); got != n {
		t.Fatalf("Count(KindPanic) = %d, want %d (monotonic across ring rotation)", got, n)
	}
	if got := log.Count(KindStall); got != 1 {
		t.Fatalf("Count(KindStall) = %d, want 1", got)
	}
	snap = log.Snapshot()
	if len(snap) != incidentLogCapacity {
		t.Fatalf("Snapshot len = %d, want ring capacity %d", len(snap), incidentLogCapacity)
	}
	// Oldest first: the n+1 incidents dropped the oldest n+1-capacity,
	// and the newest retained entry is the stall.
	if first, want := snap[0].Breakpoint, fmt.Sprintf("bp%d", n+1-incidentLogCapacity); first != want {
		t.Fatalf("oldest retained incident = %s, want %s", first, want)
	}
	for i := 1; i < len(snap)-1; i++ {
		if want := fmt.Sprintf("bp%d", n+1-incidentLogCapacity+i); snap[i].Breakpoint != want {
			t.Fatalf("Snapshot[%d] = %s, want %s", i, snap[i].Breakpoint, want)
		}
	}
	if last := snap[len(snap)-1]; last.Kind != KindStall {
		t.Fatalf("newest retained incident kind = %v, want stall", last.Kind)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].When.Before(snap[i-1].When) {
			t.Fatalf("snapshot not oldest-first at %d", i)
		}
	}
}

func TestIncidentKindStrings(t *testing.T) {
	kinds := []IncidentKind{KindPanic, KindStall, KindForceRelease, KindBreakerTrip, KindBreakerProbe, KindBreakerRearm}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d: label %q empty or duplicated", k, s)
		}
		seen[s] = true
	}
}

func TestFaultZero(t *testing.T) {
	if !(Fault{}).Zero() {
		t.Fatal("zero Fault not Zero()")
	}
	if (Fault{Drop: true}).Zero() || (Fault{StallAction: time.Millisecond}).Zero() {
		t.Fatal("non-zero Fault reported Zero()")
	}
}
