// Command hardening demonstrates the hardening layer through the public
// cbreak facade: fault injection, panic isolation, forced release,
// the overload layer's timeout-rate trip (a circuit breaker), incident
// accounting, and schedule timeout diagnostics. Its output is
// deterministic (no raw durations) so two runs can be diffed to
// demonstrate reproducible fault injection.
package main

import (
	"fmt"
	"sync"
	"time"

	"cbreak"
)

func section(name string) { fmt.Printf("== %s ==\n", name) }

func main() {
	var obj int

	// --- Panic isolation -------------------------------------------------
	// The first side's injected global-predicate panic is absorbed; the
	// already-postponed second side is released promptly instead of
	// waiting out its full 5s budget.
	section("panic isolation")
	plan := cbreak.NewFaultPlan().PanicGlobal("demo.panic", cbreak.FirstSide, 1)
	cbreak.SetFaultInjector(plan)

	var wg sync.WaitGroup
	var secondHit bool
	var secondWait time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		secondHit = cbreak.TriggerHere(cbreak.NewConflictTrigger("demo.panic", &obj), false, 5*time.Second)
		secondWait = time.Since(start)
	}()
	time.Sleep(50 * time.Millisecond) // let the second side postpone
	firstHit := cbreak.TriggerHere(cbreak.NewConflictTrigger("demo.panic", &obj), true, 5*time.Second)
	wg.Wait()
	fmt.Printf("first side hit: %v (predicate panicked)\n", firstHit)
	fmt.Printf("second side hit: %v, released well before its 5s budget: %v\n",
		secondHit, secondWait < time.Second)
	fmt.Printf("panic incidents: %d\n", cbreak.IncidentCount(cbreak.KindPanic))
	fmt.Printf("faults applied: %d\n", len(plan.Applied()))

	// --- Forced release --------------------------------------------------
	// A one-sided arrival with a 5s budget is released early by an
	// operator, with the timeout outcome its budget would have produced.
	// A second release of the same goroutine finds nothing to release.
	section("forced release")
	cbreak.Reset()
	cbreak.SetFaultInjector(nil)
	released := make(chan bool)
	go func() {
		//cbvet:ignore bpkeys intentional one-sided arrival: the demo needs a wait that never pairs
		released <- cbreak.TriggerHere(cbreak.NewConflictTrigger("demo.release", &obj), true, 5*time.Second)
	}()
	for cbreak.PostponedCount("demo.release") == 0 {
		time.Sleep(time.Millisecond)
	}
	gid := cbreak.PostponedWaiters()[0].GID
	fmt.Printf("first release: %v\n", cbreak.ForceRelease("demo.release", gid, cbreak.KindForceRelease, "demo"))
	fmt.Printf("released side hit: %v\n", <-released)
	fmt.Printf("second release: %v\n", cbreak.ForceRelease("demo.release", gid, cbreak.KindForceRelease, "demo"))
	fmt.Printf("force-release incidents: %d\n", cbreak.IncidentCount(cbreak.KindForceRelease))

	// --- Timeout-rate trip (circuit breaker) -----------------------------
	// Ten lonely arrivals against a 15ms budget: eight postpone and time
	// out (the trip is judged after 8 outcomes, and a rate of 1.0 is at
	// or above 0.9), the last two are shed without postponement. The
	// trip backs off 10x the 15ms timeout, 150ms; then a real rendezvous
	// serves as the half-open probe and re-arms the breakpoint.
	section("timeout-rate trip")
	cbreak.Reset()
	cbreak.SetFaultInjector(nil)
	cbreak.SetOverloadConfig(&cbreak.OverloadConfig{TimeoutRate: 0.9})
	bpBreaker := cbreak.Register("demo.breaker")
	for i := 0; i < 10; i++ {
		bpBreaker.Trigger(cbreak.NewConflictTrigger("demo.breaker", &obj), true,
			cbreak.Options{Timeout: 15 * time.Millisecond})
	}
	if snap, ok := cbreak.BreakerStatus("demo.breaker"); ok {
		fmt.Printf("after 10 lonely arrivals: state=%s backoff=%s\n", snap.State, snap.Backoff)
	}
	st := cbreak.Stats("demo.breaker").Snapshot()
	fmt.Printf("stats: arrivals=%d postpones=%d timeouts=%d sheds=%d trips=%d\n",
		st.Arrivals, st.Postpones, st.Timeouts, st.Sheds, st.Trips)
	time.Sleep(250 * time.Millisecond) // let the backoff expire
	wg.Add(1)
	go func() {
		defer wg.Done()
		cbreak.TriggerHere(cbreak.NewConflictTrigger("demo.breaker", &obj), false, 500*time.Millisecond)
	}()
	time.Sleep(50 * time.Millisecond)
	probeHit := cbreak.TriggerHere(cbreak.NewConflictTrigger("demo.breaker", &obj), true, 500*time.Millisecond)
	wg.Wait()
	if snap, ok := cbreak.BreakerStatus("demo.breaker"); ok {
		st := cbreak.Stats("demo.breaker").Snapshot()
		fmt.Printf("after probe rendezvous (hit=%v): state=%s trips=%d rearms=%d\n",
			probeHit, snap.State, st.Trips, st.Rearms)
	}
	fmt.Printf("trip incidents: trip=%d probe=%d rearm=%d\n",
		cbreak.IncidentCount(cbreak.KindBreakerTrip),
		cbreak.IncidentCount(cbreak.KindBreakerProbe),
		cbreak.IncidentCount(cbreak.KindBreakerRearm))
	if _, ok := cbreak.BreakerStatus("never-seen"); !ok {
		fmt.Println("unknown breakpoint has no trip state: ok=false")
	}
	cbreak.SetOverloadConfig(nil)

	// --- Disabled engine -------------------------------------------------
	// With the engine disabled, arrivals return immediately and the
	// installed fault plan never fires.
	section("disabled engine")
	cbreak.Reset()
	unused := cbreak.NewFaultPlan().PanicLocal("demo.disabled", cbreak.BothSides)
	cbreak.SetFaultInjector(unused)
	cbreak.SetEnabled(false)
	//cbvet:ignore bpkeys intentional one-sided arrival: a disabled engine returns immediately, no partner needed
	disabledHit := cbreak.TriggerHere(cbreak.NewConflictTrigger("demo.disabled", &obj), true, time.Second)
	cbreak.SetEnabled(true)
	cbreak.SetFaultInjector(nil)
	fmt.Printf("disabled arrival hit: %v, faults applied: %d\n", disabledHit, len(unused.Applied()))

	// --- Schedule timeout diagnostics ------------------------------------
	// Point "a" never arrives; "b" and "c" block and time out. The
	// structured violations name the stuck point and the blocker.
	section("schedule diagnostics")
	s := cbreak.NewSchedule(50*time.Millisecond, "a", "b", "c")
	wg.Add(2)
	go func() { defer wg.Done(); s.Reach("b") }()
	time.Sleep(20 * time.Millisecond)
	go func() { defer wg.Done(); s.Reach("c") }()
	wg.Wait()
	for _, v := range s.ViolationDetails() {
		fmt.Printf("point %q blocked by %q (also pending: %v)\n", v.Point, v.Blocker, v.Pending)
	}
	g := cbreak.NewScheduleGraph(30 * time.Millisecond)
	g.Point("sink", "dep1", "dep2")
	g.Reach("dep1")
	if !g.Reach("sink") {
		for _, v := range g.ViolationDetails() {
			fmt.Printf("graph point %q blocked by %q (unmet: %v)\n", v.Point, v.Blocker, v.Pending)
		}
	}
	fmt.Println("done")
}
