package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbreak/internal/guard"
	"cbreak/internal/telemetry"
)

// TestShardLifecycleStress hammers the shard lifecycle from every
// direction at once: concurrent two-way and multi-way arrivals across
// many breakpoints, Reset swapping registries out from under them,
// SetBreakerConfig flipping breakers on and off (epoch churn), the
// watchdog scanning shards, handles re-resolving across generations,
// readers walking stats and breaker snapshots, and a bus listener
// coming and going. Run under -race in CI, it pins the new concurrency
// contract; without -race it is still a decent smoke for lost wakeups
// (every arrival must return).
func TestShardLifecycleStress(t *testing.T) {
	e := NewEngine()
	e.DefaultTimeout = 2 * time.Millisecond
	e.OrderWindow = 0
	e.StartWatchdog(5*time.Millisecond, 5*time.Millisecond)
	defer e.StopWatchdog()

	const (
		nBreakpoints = 16
		nTriggerers  = 8
		iterations   = 300
	)
	names := make([]string, nBreakpoints)
	objs := make([]*int, nBreakpoints)
	for i := range names {
		names[i] = fmt.Sprintf("stress.bp%d", i)
		objs[i] = new(int)
	}

	stop := make(chan struct{})
	var trigWG, churnWG sync.WaitGroup

	// Trigger hammers: mixed string-keyed and handle arrivals, both
	// sides, so rendezvous, timeouts, and Reset releases all happen.
	for g := 0; g < nTriggerers; g++ {
		trigWG.Add(1)
		go func(g int) {
			defer trigWG.Done()
			bp := e.Breakpoint(names[g%nBreakpoints])
			for i := 0; i < iterations; i++ {
				k := (g + i) % nBreakpoints
				tr := NewConflictTrigger(names[k], objs[k])
				switch i % 3 {
				case 0:
					e.TriggerHere(tr, g%2 == 0, Options{})
				case 1:
					bp.Trigger(NewConflictTrigger(bp.Name(), objs[g%nBreakpoints]), i%2 == 0, Options{})
				case 2:
					e.TriggerHereMulti(tr, g%3, 3, Options{})
				}
			}
		}(g)
	}

	// Lifecycle churn: Reset and breaker reconfiguration racing the
	// arrivals above.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		cfg := guard.DefaultBreakerConfig()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				e.Reset()
			case 1:
				e.SetBreakerConfig(&cfg)
			case 2:
				e.SetBreakerConfig(nil)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Readers: every observability surface, concurrently.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.SnapshotAll()
			e.IncidentCounts()
			for _, n := range names {
				e.PostponedCount(n)
				e.MultiPostponedCount(n)
				e.BreakerSnapshot(n)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Event history: a tap attached and detached in a loop, so arrivals
	// race the bus's listener set going from empty to one and back.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		churnTap(e, stop, &recordingTap{})
	}()

	// The triggerers are the bounded part; a generous deadline bounds
	// the whole test so a lost wakeup fails instead of hanging.
	done := make(chan struct{})
	go func() { trigWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress triggerers did not finish: lost wakeup or deadlock in shard lifecycle")
	}
	close(stop)
	churnWG.Wait()
}

// churnTap attaches tap to e's bus and detaches it again, in a loop,
// until stop closes.
func churnTap(e *Engine, stop <-chan struct{}, tap telemetry.Tap) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		h := e.Bus().AttachTap(tap)
		time.Sleep(200 * time.Microsecond)
		h.Detach()
		time.Sleep(200 * time.Microsecond)
	}
}

// TestTapChurnKeepsCountersExact: a listener attaching and detaching
// while arrivals run changes what the bus carries, never what the
// engine counts. Every outcome lands in exactly one counter, and no
// two delivered events share a sequence number.
func TestTapChurnKeepsCountersExact(t *testing.T) {
	e := NewEngine()
	e.DefaultTimeout = time.Millisecond
	e.OrderWindow = 0
	const (
		nBreakpoints = 4
		nTriggerers  = 4
		iterations   = 2000
	)
	bps := make([]*Breakpoint, nBreakpoints)
	objs := make([]*int, nBreakpoints)
	for i := range bps {
		bps[i] = e.Breakpoint(fmt.Sprintf("churn.bp%d", i))
		objs[i] = new(int)
	}
	e.SetBreakpointEnabled(bps[nBreakpoints-1].Name(), false)

	tap := &recordingTap{}
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		churnTap(e, stop, tap)
	}()

	never := Options{ExtraLocal: func() bool { return false }}
	var outcomes [nBreakpoints][OutcomeShed + 1]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < nTriggerers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				k, opts := (g+i)%nBreakpoints, never
				if i%50 == 0 {
					// Both sides postpone on bp0: hits and timeouts.
					k, opts = 0, Options{}
				}
				out := bps[k].TriggerOutcome(NewConflictTrigger(bps[k].Name(), objs[k]), g%2 == 0, opts)
				outcomes[k][out].Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churnWG.Wait()

	for k, bp := range bps {
		n := func(o Outcome) int64 { return outcomes[k][o].Load() }
		st := bp.Stats().Snapshot()
		enabled := n(OutcomeLocalFalse) + n(OutcomeHit) + n(OutcomeTimeout)
		if st.Arrivals != enabled || st.LocalFalses != n(OutcomeLocalFalse) ||
			st.Hits*2 != n(OutcomeHit) || st.Timeouts != n(OutcomeTimeout) {
			t.Errorf("%s: stats %+v disagree with outcomes local-false=%d hit=%d timeout=%d",
				bp.Name(), st, n(OutcomeLocalFalse), n(OutcomeHit), n(OutcomeTimeout))
		}
		if other := n(OutcomePanic) + n(OutcomeShed); other != 0 {
			t.Errorf("%s: %d arrivals returned an unexpected outcome", bp.Name(), other)
		}
	}
	if off := &outcomes[nBreakpoints-1]; off[OutcomeDisabled].Load() == 0 || off[OutcomeLocalFalse].Load() != 0 {
		t.Errorf("disabled breakpoint: %d disabled, %d local-false outcomes",
			off[OutcomeDisabled].Load(), off[OutcomeLocalFalse].Load())
	}
	seen := make(map[uint64]bool)
	for _, ev := range tap.events() {
		if seen[ev.Seq] {
			t.Fatalf("Seq %d delivered twice", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}
