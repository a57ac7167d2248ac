package guard

import (
	"fmt"
	"testing"
	"time"
)

func trippedBreaker(t *testing.T, cfg BreakerConfig, now time.Time) *Breaker {
	t.Helper()
	b := NewBreaker(cfg)
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("breaker never tripped")
		}
		if tr := b.OnTimeout(now); tr == TransitionTripped {
			return b
		}
	}
}

func TestBreakerTripsAtTimeoutRate(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := BreakerConfig{MinSamples: 4, Window: 64, TimeoutRate: 0.9, Backoff: time.Second}
	b := NewBreaker(cfg)

	// Three timeouts: below MinSamples, still closed.
	for i := 0; i < 3; i++ {
		if tr := b.OnTimeout(now); tr != TransitionNone {
			t.Fatalf("timeout %d: transition %v before MinSamples", i+1, tr)
		}
	}
	if BreakerState(b.state.Load()) != BreakerClosed {
		t.Fatalf("state %v before MinSamples, want closed", BreakerState(b.state.Load()))
	}
	// Fourth timeout reaches MinSamples at 100% rate: trip.
	if tr := b.OnTimeout(now); tr != TransitionTripped {
		t.Fatalf("transition %v at MinSamples, want tripped", tr)
	}
	if BreakerState(b.state.Load()) != BreakerOpen {
		t.Fatalf("state %v after trip, want open", BreakerState(b.state.Load()))
	}
	if admit, _ := b.Allow(now); admit {
		t.Fatal("open breaker admitted an arrival before backoff expiry")
	}
}

func TestBreakerHealthyRateStaysClosed(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{MinSamples: 4, TimeoutRate: 0.9})
	// Alternate hits and timeouts: 50% rate, far under the threshold.
	for i := 0; i < 100; i++ {
		b.OnHit(now)
		if tr := b.OnTimeout(now); tr != TransitionNone {
			t.Fatalf("round %d: transition %v at 50%% timeout rate", i, tr)
		}
	}
	if BreakerState(b.state.Load()) != BreakerClosed {
		t.Fatalf("state %v, want closed", BreakerState(b.state.Load()))
	}
}

func TestBreakerProbeRearm(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := BreakerConfig{MinSamples: 2, TimeoutRate: 0.9, Backoff: time.Second, MaxBackoff: 8 * time.Second}
	b := trippedBreaker(t, cfg, now)

	// Before the backoff expires arrivals are shed.
	if admit, _ := b.Allow(now.Add(500 * time.Millisecond)); admit {
		t.Fatal("admitted during backoff")
	}
	// After expiry the first arrival is the probe...
	probeAt := now.Add(2 * time.Second)
	admit, tr := b.Allow(probeAt)
	if !admit || tr != TransitionProbe {
		t.Fatalf("Allow after backoff = (%v, %v), want (true, probe)", admit, tr)
	}
	if BreakerState(b.state.Load()) != BreakerHalfOpen {
		t.Fatalf("state %v after probe, want half-open", BreakerState(b.state.Load()))
	}
	// ...and later arrivals are admitted too: a rendezvous probe needs a
	// partner to have any chance of hitting.
	if admit, tr := b.Allow(probeAt); !admit || tr != TransitionNone {
		t.Fatalf("half-open Allow = (%v, %v), want (true, none)", admit, tr)
	}
	// The probe hits: breaker closes, backoff resets.
	if tr := b.OnHit(probeAt); tr != TransitionRearmed {
		t.Fatalf("probe hit transition %v, want rearmed", tr)
	}
	if BreakerState(b.state.Load()) != BreakerClosed {
		t.Fatalf("state %v after re-arm, want closed", BreakerState(b.state.Load()))
	}
	snap := b.Snapshot()
	if snap.Backoff != time.Second || snap.Samples != 0 || snap.Rearms != 1 {
		t.Fatalf("snapshot after re-arm = %v, want reset history and backoff", snap)
	}
}

func TestBreakerProbeFailureDoublesBackoff(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := BreakerConfig{MinSamples: 2, TimeoutRate: 0.9, Backoff: time.Second, MaxBackoff: 3 * time.Second}
	b := trippedBreaker(t, cfg, now)

	at := now
	wantBackoffs := []time.Duration{2 * time.Second, 3 * time.Second, 3 * time.Second} // doubled, then capped
	for i, want := range wantBackoffs {
		at = at.Add(time.Minute) // far past any backoff
		if admit, tr := b.Allow(at); !admit || tr != TransitionProbe {
			t.Fatalf("probe %d: Allow = (%v, %v)", i, admit, tr)
		}
		if tr := b.OnTimeout(at); tr != TransitionReopened {
			t.Fatalf("probe %d: timeout transition %v, want reopened", i, tr)
		}
		if got := b.Snapshot().Backoff; got != want {
			t.Fatalf("probe %d: backoff %v, want %v", i, got, want)
		}
		if admit, _ := b.Allow(at.Add(time.Millisecond)); admit {
			t.Fatalf("probe %d: admitted immediately after re-open", i)
		}
	}
}

func TestBreakerWindowDecay(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{MinSamples: 4, Window: 8, TimeoutRate: 0.99})
	for i := 0; i < 7; i++ {
		b.OnHit(now)
	}
	// The 8th sample reaches the window: both counters halve.
	b.OnHit(now)
	if snap := b.Snapshot(); snap.Samples != 4 || snap.Timeouts != 0 {
		t.Fatalf("after window: samples=%d timeouts=%d, want 4/0", snap.Samples, snap.Timeouts)
	}
}

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
