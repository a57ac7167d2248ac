package cache4j

import (
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/guard"
	"cbreak/internal/guard/faultinject"
)

// Chaos tests: run the cache4j reproduction with faults injected into
// its breakpoints and assert the hardened engine keeps the application
// alive and consistent — no stall, no escaped panic, no leaked waiter.
// The plans are ordinal-keyed, so each scenario injects the same faults
// at the same call sites on every run.

func chaosEngine(t *testing.T, plan *faultinject.Plan) *core.Engine {
	t.Helper()
	e := core.NewEngine()
	e.DefaultTimeout = 20 * time.Millisecond
	e.SetInjector(plan)
	return e
}

// assertEngineConsistent checks the post-run invariants every chaos
// scenario must preserve.
func assertEngineConsistent(t *testing.T, e *core.Engine, bp string, res appkit.Result) {
	t.Helper()
	if res.Status == appkit.Stall || res.Status == appkit.Exception {
		t.Fatalf("application did not survive the faults: %v", res)
	}
	if n := e.PostponedCount(bp); n != 0 {
		t.Fatalf("%d waiters leaked on %s", n, bp)
	}
}

func TestChaosPanickingPredicates(t *testing.T) {
	plan := faultinject.NewPlan().
		PanicLocal(BPRace1, faultinject.SecondSide, 1, 3).
		PanicExtra(BPRace1, faultinject.SecondSide, 5).
		PanicGlobal(BPRace1, faultinject.FirstSide, 1)
	e := chaosEngine(t, plan)

	res := Run(Config{Engine: e, Bug: Race1, Breakpoint: true, Ops: 200})
	assertEngineConsistent(t, e, BPRace1, res)

	if len(plan.Applied()) == 0 {
		t.Fatal("no faults fired; the scenario must exercise the injected sites")
	}
	if got := e.Stats(BPRace1).Panics(); got == 0 {
		t.Fatal("no absorbed panics counted despite injected predicate panics")
	}
	if got := e.IncidentCount(guard.KindPanic); got == 0 {
		t.Fatal("no panic incidents recorded")
	}
}

func TestChaosStalledActionAndNoShow(t *testing.T) {
	plan := faultinject.NewPlan().
		StallAction(BPRace1, faultinject.FirstSide, 60*time.Millisecond, 1).
		Drop(BPRace1, faultinject.SecondSide, 2, 4)
	e := chaosEngine(t, plan)

	res := Run(Config{Engine: e, Bug: Race1, Breakpoint: true, Ops: 200})
	assertEngineConsistent(t, e, BPRace1, res)
	if len(plan.Applied()) == 0 {
		t.Fatal("no faults fired")
	}
}

func TestChaosDeterministicInjection(t *testing.T) {
	build := func() *faultinject.Plan {
		return faultinject.NewPlan().
			PanicLocal(BPRace3, faultinject.FirstSide, 2).
			Drop(BPRace3, faultinject.SecondSide, 1)
	}
	// The faults fire on fixed arrival ordinals; the remover side of
	// race3 is sequential, so the fired set is identical across runs.
	var fired [2][]faultinject.Applied
	for i := range fired {
		plan := build()
		e := chaosEngine(t, plan)
		res := Run(Config{Engine: e, Bug: Race3, Breakpoint: true, Ops: 100})
		assertEngineConsistent(t, e, BPRace3, res)
		for _, a := range plan.Applied() {
			if a.First {
				fired[i] = append(fired[i], a)
			}
		}
	}
	if len(fired[0]) == 0 {
		t.Fatal("no first-side faults fired")
	}
	if len(fired[0]) != len(fired[1]) || fired[0][0] != fired[1][0] {
		t.Fatalf("injection not deterministic across runs:\n%+v\n%+v", fired[0], fired[1])
	}
}

func TestChaosBreakerDisablesDeadBreakpoint(t *testing.T) {
	// Drop every reader-side arrival of race1: the reset side becomes a
	// 100%-timeout breakpoint. With the timeout-rate trip on, it trips,
	// auto-disables (sheds), and later re-arms via a half-open probe.
	plan := faultinject.NewPlan().Drop(BPRace1, faultinject.SecondSide)
	e := chaosEngine(t, plan)
	e.SetOverloadConfig(&core.OverloadConfig{TimeoutRate: 0.9})

	// Trip: eight reset-side arrivals with no partner. They time out
	// after the engine's 20ms default, so the trip backs off 200ms.
	cfg := &Config{Engine: e, Bug: Race1, Breakpoint: true}
	cache := NewCache(1<<30, cfg)
	cache.Put("k", 1)
	for i := 0; i < 8; i++ {
		cache.ResetStats()
	}
	if snap, ok := e.BreakerSnapshot(BPRace1); !ok || snap.State != core.BreakerOpen {
		t.Fatalf("breaker = %v/%v after 100%% timeouts, want open", snap.State, ok)
	}
	if got := e.Stats(BPRace1).Trips(); got == 0 {
		t.Fatal("no trips counted")
	}
	// Tripped: arrivals shed at near-zero cost.
	start := time.Now()
	cache.ResetStats()
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("tripped breakpoint paused %v; must shed instantly", d)
	}
	if got := e.Stats(BPRace1).Sheds(); got == 0 {
		t.Fatal("no sheds counted")
	}

	// Re-arm: stop dropping (fresh no-op injector), wait out the backoff,
	// and run a real rendezvous as the half-open probe.
	e.SetInjector(faultinject.NewPlan())
	time.Sleep(400 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		cache.Get("k") // reader side arrives and matches the reset probe
	}()
	cache.ResetStats()
	<-done
	if snap, _ := e.BreakerSnapshot(BPRace1); snap.State != core.BreakerClosed {
		t.Fatalf("breaker = %v after probe hit, want closed (re-armed)", snap.State)
	}
	if got := e.Stats(BPRace1).Rearms(); got == 0 {
		t.Fatal("no re-arms counted")
	}
}
