package waitgraph

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cbreak/internal/core"
	"cbreak/internal/guard"
	"cbreak/internal/locks"
	"cbreak/internal/telemetry"
)

// The locks registry is process-global and several tests here
// deliberately leak blocked goroutines (that is the condition under
// test), so every assertion scopes to the test's own lock names and
// every supervisor is started before its test creates trouble — a
// cycle that closed before Start is never delivered to it.

func testSupervisor(e *core.Engine, cfg Config) *Supervisor {
	if cfg.Interval == 0 {
		cfg.Interval = time.Millisecond
	}
	return New(e, cfg)
}

func reportsMentioning(rs []Report, lock string) []Report {
	var out []Report
	for _, r := range rs {
		for _, l := range r.Locks {
			if l == lock {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

func TestSupervisorConfirmsDeadlock(t *testing.T) {
	e := core.NewEngine()
	sup := testSupervisor(e, Config{})
	sup.Start()
	defer sup.Stop()

	cls := locks.NewClass("WGDeadlock")
	a := locks.NewClassMutex("wg-dl-A", cls)
	b := locks.NewClassMutex("wg-dl-B", cls)
	gids := make(chan uint64, 2)
	acquired := make(chan struct{}, 2)
	// Cross-acquisition deadlock, deliberately leaked.
	go func() {
		gids <- locks.GoroutineID()
		a.LockAt("siteA")
		acquired <- struct{}{}
		time.Sleep(20 * time.Millisecond)
		// Blocks forever.
		//cbvet:ignore lockorder intentional: this test constructs the deadlock the supervisor must confirm
		b.LockAt("siteA2")
	}()
	go func() {
		gids <- locks.GoroutineID()
		b.LockAt("siteB")
		acquired <- struct{}{}
		time.Sleep(20 * time.Millisecond)
		// Blocks forever.
		//cbvet:ignore lockorder intentional: this test constructs the deadlock the supervisor must confirm
		a.LockAt("siteB2")
	}()
	want := map[uint64]bool{<-gids: true, <-gids: true}
	<-acquired
	<-acquired

	select {
	case <-sup.Confirmed():
	case <-time.After(10 * time.Second):
		t.Fatal("supervisor never confirmed the deadlock")
	}
	rs := reportsMentioning(sup.Reports(), "wg-dl-A")
	if len(rs) == 0 {
		t.Fatalf("no report names wg-dl-A: %v", sup.Reports())
	}
	r := rs[0]
	if r.Kind != ReportDeadlock {
		t.Fatalf("kind = %s", r.Kind)
	}
	if len(r.GIDs) != 2 || !want[r.GIDs[0]] || !want[r.GIDs[1]] {
		t.Fatalf("cycle gids = %v, want the two lockers %v", r.GIDs, want)
	}
	joined := strings.Join(r.Locks, ",")
	if !strings.Contains(joined, "wg-dl-A") || !strings.Contains(joined, "wg-dl-B") {
		t.Fatalf("cycle locks = %v", r.Locks)
	}
	for _, c := range r.Classes {
		if c != "WGDeadlock" {
			t.Fatalf("classes = %v", r.Classes)
		}
	}
	sites := strings.Join(r.Sites, ",")
	if !strings.Contains(sites, "siteA2") || !strings.Contains(sites, "siteB2") {
		t.Fatalf("sites = %v", r.Sites)
	}
	if n := e.IncidentCount(guard.KindDeadlockConfirmed); n < 1 {
		t.Fatalf("deadlock-confirmed incidents = %d", n)
	}
	if !strings.Contains(r.Desc, "held by") {
		t.Fatalf("desc lacks ownership: %q", r.Desc)
	}
}

// Satellite edge case: a re-entrant acquisition under a trigger action
// is a self-edge — a 1-cycle in the wait graph.
func TestAnalyzeSelfEdgeFromReentrantTriggerAction(t *testing.T) {
	e := core.NewEngine()
	l := locks.NewMutex("wg-self")
	gidCh := make(chan uint64, 1)
	go func() {
		gidCh <- locks.GoroutineID()
		l.LockAt("outer")
		// The trigger never matches; on release its action re-acquires
		// the lock the goroutine already holds. Leaks by design.
		e.TriggerHereAnd(core.NewConflictTrigger("wg.self.bp", new(int)), true,
			core.Options{Timeout: time.Millisecond}, func() {
				l.LockAt("reentrant")
			})
	}()
	gid := <-gidCh

	deadline := time.Now().Add(5 * time.Second)
	for {
		// Key on the goroutine id, not just the lock name: under -count>1
		// the previous iteration's leaked goroutine still shows a
		// self-edge on an identically-named lock.
		for _, r := range reportsMentioning(Capture(e).Analyze(), "wg-self") {
			if len(r.GIDs) != 1 || r.GIDs[0] != gid {
				continue
			}
			if r.Kind != ReportDeadlock {
				t.Fatalf("kind = %s", r.Kind)
			}
			if r.Sites[0] != "reentrant" {
				t.Fatalf("site = %q", r.Sites[0])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("self-edge never detected")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSupervisorBreaksPostponeStall(t *testing.T) {
	e := core.NewEngine()
	sup := testSupervisor(e, Config{})
	sup.Start()
	defer sup.Stop()

	l := locks.NewMutex("wg-stall-L")
	victimGID := make(chan uint64, 1)
	victimOut := make(chan core.Outcome, 1)
	go func() {
		victimGID <- locks.GoroutineID()
		l.LockAt("victim-site")
		defer l.Unlock()
		// 30s budget: only a cycle break can return this quickly.
		victimOut <- e.TriggerOutcome(core.NewConflictTrigger("wg.stall.bp", new(int)),
			true, core.Options{Timeout: 30 * time.Second})
	}()
	vg := <-victimGID
	waitPostponed(t, e, "wg.stall.bp") // victim holds the lock and is parked
	blockedElapsed := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		l.LockAt("wedged-site")
		l.Unlock()
		blockedElapsed <- time.Since(start)
	}()

	start := time.Now()
	select {
	case out := <-victimOut:
		if out != core.OutcomeTimeout {
			t.Fatalf("victim outcome = %v, want OutcomeTimeout", out)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("victim never force-released")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cycle break took %v", elapsed)
	}
	if elapsed := <-blockedElapsed; elapsed > 10*time.Second {
		t.Fatalf("wedged goroutine blocked for %v", elapsed)
	}

	rs := reportsMentioning(sup.Reports(), "wg-stall-L")
	if len(rs) == 0 {
		t.Fatalf("no stall report names wg-stall-L: %v", sup.Reports())
	}
	r := rs[0]
	if r.Kind != ReportPostponeStall {
		t.Fatalf("kind = %s", r.Kind)
	}
	if r.Victim != vg {
		t.Fatalf("victim = g%d, want g%d", r.Victim, vg)
	}
	if len(r.Breakpoints) != 1 || r.Breakpoints[0] != "wg.stall.bp" {
		t.Fatalf("breakpoints = %v", r.Breakpoints)
	}
	if r.Sites[0] != "wedged-site" {
		t.Fatalf("sites = %v", r.Sites)
	}
	if n := e.IncidentCount(guard.KindCycleBreak); n != 1 {
		t.Fatalf("cycle-break incidents = %d, want 1", n)
	}
	if !strings.Contains(r.Desc, "wg.stall.bp") || !strings.Contains(r.Desc, "wg-stall-L") {
		t.Fatalf("desc = %q", r.Desc)
	}
}

// TestSupervisorBreaksRepeatedStall: a goroutine that keeps holding a
// lock and is postponed again on the same breakpoint, with the same
// goroutine waiting behind it, forms the same stall again, and the
// supervisor breaks it again.
func TestSupervisorBreaksRepeatedStall(t *testing.T) {
	e := core.NewEngine()
	sup := testSupervisor(e, Config{})
	sup.Start()
	defer sup.Stop()

	l := locks.NewMutex("wg-repeat-L")
	victimGID := make(chan uint64, 1)
	victimOut := make(chan core.Outcome, 2)
	go func() {
		victimGID <- locks.GoroutineID()
		l.LockAt("victim-site")
		defer l.Unlock()
		for range 2 {
			victimOut <- e.TriggerOutcome(core.NewConflictTrigger("wg.repeat.bp", new(int)),
				true, core.Options{Timeout: 30 * time.Second})
		}
	}()
	vg := <-victimGID
	waitPostponed(t, e, "wg.repeat.bp")
	wedged := make(chan struct{})
	go func() {
		l.LockAt("wedged-site")
		l.Unlock()
		close(wedged)
	}()

	for i := range 2 {
		start := time.Now()
		select {
		case out := <-victimOut:
			if out != core.OutcomeTimeout {
				t.Fatalf("postponement %d outcome = %v, want OutcomeTimeout", i+1, out)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("postponement %d never force-released", i+1)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("breaking postponement %d took %v", i+1, elapsed)
		}
	}
	select {
	case <-wedged:
	case <-time.After(10 * time.Second):
		t.Fatal("wedged goroutine never got the lock")
	}

	rs := reportsMentioning(sup.Reports(), "wg-repeat-L")
	if len(rs) != 2 {
		t.Fatalf("%d reports name wg-repeat-L, want 2: %v", len(rs), sup.Reports())
	}
	for _, r := range rs {
		if r.Kind != ReportPostponeStall || r.Victim != vg || r.signature() != rs[0].signature() {
			t.Fatalf("reports = %v, want two stalls of victim g%d with one signature", rs, vg)
		}
	}
	if n := e.IncidentCount(guard.KindCycleBreak); n != 2 {
		t.Fatalf("cycle-break incidents = %d, want 2", n)
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestStallAnalysisCopiesOnlyWhatItReports: the stall analysis asks the
// locks registry about the postponed goroutine alone, so 200 goroutines
// parked on an unrelated lock cost it no allocation. It runs
// postponeStalls itself, so no debounce acts while it measures.
func TestStallAnalysisCopiesOnlyWhatItReports(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so fmt's printer pool makes allocation counts vary")
	}
	e := core.NewEngine()
	l := locks.NewMutex("wg-alloc-L")
	victimGID := make(chan uint64, 1)
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		victimGID <- locks.GoroutineID()
		l.LockAt("victim-site")
		defer l.Unlock()
		e.TriggerOutcome(core.NewConflictTrigger("wg.alloc.bp", new(int)), true,
			core.Options{Timeout: 30 * time.Second})
	}()
	vg := <-victimGID
	waitPostponed(t, e, "wg.alloc.bp")
	wedgedGID := make(chan uint64, 1)
	wedgedDone := make(chan struct{})
	go func() {
		defer close(wedgedDone)
		wedgedGID <- locks.GoroutineID()
		l.LockAt("wedged-site")
		l.Unlock()
	}()
	wg := <-wedgedGID
	waitBlocked(t, "wg-alloc-L")

	wantDesc := fmt.Sprintf("g%d postponed on wg.alloc.bp (slot 0/2) holding wg-alloc-L; "+
		"g%d waits wg-alloc-L at wedged-site (held by g%d)", vg, wg, vg)
	analyze := func() float64 {
		t.Helper()
		var stalls []Report
		allocs := testing.AllocsPerRun(100, func() { stalls = postponeStalls(e.PostponedWaiters()) })
		if len(stalls) != 1 || stalls[0].Desc != wantDesc {
			t.Fatalf("stalls = %v, want one: %s", stalls, wantDesc)
		}
		return allocs
	}
	alone := analyze()

	unrelated := locks.NewMutex("wg-alloc-unrelated")
	unrelated.Lock()
	var parked sync.WaitGroup
	for range 200 {
		parked.Add(1)
		go func() {
			defer parked.Done()
			unrelated.Lock()
			unrelated.Unlock()
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for n := 0; n < 200; {
		n = 0
		for _, e := range locks.WaitEdges() {
			if e.Lock == "wg-alloc-unrelated" {
				n++
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 200 goroutines parked", n)
		}
		time.Sleep(time.Millisecond)
	}
	crowded := analyze()
	unrelated.Unlock()
	parked.Wait()

	e.ForceRelease("wg.alloc.bp", vg, guard.KindForceRelease, "test cleanup")
	<-victimDone
	<-wedgedDone
	if crowded != alone {
		t.Fatalf("stall analysis allocates %v times beside 200 unrelated waiters, %v without them", crowded, alone)
	}
	t.Logf("stall analysis allocates %v times, with or without 200 unrelated waiters", alone)
}

// Satellite edge case: a 3-party chain — the postponed victim wedges
// one goroutine directly and a second transitively — with a second
// breakpoint's stall confirmed in the same run. The supervisor is
// driven synchronously with Scan so the full topology is assembled
// before any cycle break can fire.
func TestThreePartyChainAcrossTwoBreakpoints(t *testing.T) {
	e := core.NewEngine()
	sup := testSupervisor(e, Config{})

	la := locks.NewMutex("wg-3p-LA")
	lb := locks.NewMutex("wg-3p-LB")
	lc := locks.NewMutex("wg-3p-LC")
	var done sync.WaitGroup

	// Victim 1: holds LA, postponed on B1 with a huge budget.
	v1GID := make(chan uint64, 1)
	done.Add(1)
	go func() {
		defer done.Done()
		v1GID <- locks.GoroutineID()
		la.Lock()
		defer la.Unlock()
		e.TriggerOutcome(core.NewConflictTrigger("wg.3p.b1", new(int)), true,
			core.Options{Timeout: 30 * time.Second})
	}()
	vg1 := <-v1GID
	waitPostponed(t, e, "wg.3p.b1") // victim 1 holds LA and is parked
	// Party 2: holds LB, blocks on LA (wedged directly by victim 1).
	g2GID := make(chan uint64, 1)
	done.Add(1)
	go func() {
		defer done.Done()
		g2GID <- locks.GoroutineID()
		lb.Lock()
		defer lb.Unlock()
		la.Lock()
		la.Unlock()
	}()
	gg2 := <-g2GID
	waitBlocked(t, "wg-3p-LA")
	// Party 3: blocks on LB (wedged transitively through party 2).
	g3GID := make(chan uint64, 1)
	done.Add(1)
	go func() {
		defer done.Done()
		g3GID <- locks.GoroutineID()
		lb.Lock()
		lb.Unlock()
	}()
	gg3 := <-g3GID
	waitBlocked(t, "wg-3p-LB")
	// Victim 2: a second breakpoint's stall, wedging one goroutine on LC.
	done.Add(1)
	go func() {
		defer done.Done()
		lc.Lock()
		defer lc.Unlock()
		e.TriggerOutcome(core.NewConflictTrigger("wg.3p.b2", new(int)), true,
			core.Options{Timeout: 30 * time.Second})
	}()
	waitPostponed(t, e, "wg.3p.b2") // victim 2 holds LC and is parked
	done.Add(1)
	go func() {
		defer done.Done()
		lc.Lock()
		lc.Unlock()
	}()
	waitBlocked(t, "wg-3p-LC")

	// Two synchronous scans: sight, confirm, break both cycles.
	sup.Scan()
	sup.Scan()

	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		t.Fatal("cycle breaks never released the parties")
	}

	var chain, second *Report
	rs := sup.Reports()
	for i, r := range rs {
		if r.Kind != ReportPostponeStall {
			continue
		}
		switch r.Breakpoints[0] {
		case "wg.3p.b1":
			if len(r.GIDs) == 3 {
				chain = &rs[i]
			}
		case "wg.3p.b2":
			second = &rs[i]
		}
	}
	if chain == nil {
		t.Fatalf("no 3-party stall report for wg.3p.b1: %v", sup.Reports())
	}
	if chain.Victim != vg1 {
		t.Fatalf("chain victim = g%d, want g%d", chain.Victim, vg1)
	}
	got := map[uint64]bool{}
	for _, g := range chain.GIDs {
		got[g] = true
	}
	if !got[vg1] || !got[gg2] || !got[gg3] {
		t.Fatalf("chain gids = %v, want {%d,%d,%d}", chain.GIDs, vg1, gg2, gg3)
	}
	joined := strings.Join(chain.Locks, ",")
	if !strings.Contains(joined, "wg-3p-LA") || !strings.Contains(joined, "wg-3p-LB") {
		t.Fatalf("chain locks = %v", chain.Locks)
	}
	if second == nil {
		t.Fatalf("no stall report for the second breakpoint: %v", sup.Reports())
	}
}

// waitPostponed waits until a goroutine is postponed on the named
// breakpoint.
func waitPostponed(t *testing.T, e *core.Engine, bp string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.PostponedCount(bp) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("nobody ever postponed on %s", bp)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitBlocked waits until some goroutine shows a wait edge on the named
// lock.
func waitBlocked(t *testing.T, lock string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, e := range locks.WaitEdges() {
			if e.Lock == lock {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("nobody ever blocked on %s", lock)
		}
		time.Sleep(time.Millisecond)
	}
}

// Satellite edge case: scanning must tolerate Reset swapping the shard
// registry underneath it. Run with -race.
func TestScanRacesReset(t *testing.T) {
	e := core.NewEngine()
	sup := testSupervisor(e, Config{Interval: 200 * time.Microsecond})
	sup.Start()
	defer sup.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			names := []string{"wg.race.a", "wg.race.b"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.TriggerHere(core.NewConflictTrigger(names[i%2], new(int)), i%2 == 0,
					core.Options{Timeout: 2 * time.Millisecond})
			}
		}(i)
	}
	for j := 0; j < 50; j++ {
		e.Reset()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	e.Reset()
	// The counter must balance once everything has drained.
	deadline := time.Now().Add(5 * time.Second)
	for e.PostponedTotal() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("PostponedTotal = %d after drain, want 0", e.PostponedTotal())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSupervisorBaselinesPreexistingCycles(t *testing.T) {
	// Leak a deadlock BEFORE the supervisor starts.
	a := locks.NewMutex("wg-base-A")
	b := locks.NewMutex("wg-base-B")
	gids := make(chan uint64, 2)
	acquired := make(chan struct{}, 2)
	go func() {
		gids <- locks.GoroutineID()
		a.Lock()
		acquired <- struct{}{}
		time.Sleep(10 * time.Millisecond)
		//cbvet:ignore lockorder intentional: this test constructs the deadlock the supervisor must confirm
		b.Lock()
	}()
	go func() {
		gids <- locks.GoroutineID()
		b.Lock()
		acquired <- struct{}{}
		time.Sleep(10 * time.Millisecond)
		//cbvet:ignore lockorder intentional: this test constructs the deadlock the supervisor must confirm
		a.Lock()
	}()
	leaked := map[uint64]bool{<-gids: true, <-gids: true}
	<-acquired
	<-acquired
	// Wait for THIS iteration's goroutines to block (by gid — under
	// -count>1 a previous iteration's leaked cycle shares the lock names
	// and would satisfy a name-based wait before these block).
	deadline := time.Now().Add(5 * time.Second)
	for blocked := 0; blocked < 2; {
		blocked = 0
		for _, e := range locks.WaitEdges() {
			if leaked[e.Waiter] {
				blocked++
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("leaked cycle never formed")
		}
		time.Sleep(time.Millisecond)
	}

	e := core.NewEngine()
	sup := testSupervisor(e, Config{})
	sup.Start()
	defer sup.Stop()
	waitScans(t, sup, 10)
	for _, r := range sup.Reports() {
		for _, g := range r.GIDs {
			if leaked[g] {
				t.Fatalf("supervisor confirmed a pre-existing cycle: %v", r)
			}
		}
	}
	select {
	case <-sup.Confirmed():
		t.Fatal("Confirmed closed for a baselined cycle")
	default:
	}
}

func waitScans(t *testing.T, sup *Supervisor, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sup.Scans() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d scans ran", sup.Scans())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReportSignatureCanonical(t *testing.T) {
	r1 := Report{Kind: ReportDeadlock, GIDs: []uint64{7, 9}, Locks: []string{"A", "B"}}
	r2 := Report{Kind: ReportDeadlock, GIDs: []uint64{9, 7}, Locks: []string{"B", "A"}}
	if r1.signature() != r2.signature() {
		t.Fatalf("rotated cycle signatures differ: %q vs %q", r1.signature(), r2.signature())
	}
	r3 := Report{Kind: ReportPostponeStall, GIDs: []uint64{7, 9}, Locks: []string{"A", "B"}}
	if r1.signature() == r3.signature() {
		t.Fatal("different kinds share a signature")
	}
}

func TestSupervisorStartStopIdempotent(t *testing.T) {
	sup := testSupervisor(core.NewEngine(), Config{})
	sup.Stop() // no-op before start
	sup.Start()
	sup.Start() // idempotent
	waitScans(t, sup, 1)
	sup.Stop()
	sup.Stop() // no-op after stop
}

// lockCycle leaks n goroutines: goroutine i takes lock i at site
// "hold<i>" and, once every goroutine holds its lock, takes lock i+1
// (mod n) at site "want<i>". For n = 1 that is a re-entrant
// acquisition, a self-edge. It returns the goroutines and the locks'
// names, both in lock order.
func lockCycle(prefix string, n int) (gids []uint64, names []string) {
	ls := make([]*locks.Mutex, n)
	for i := range ls {
		names = append(names, fmt.Sprintf("%s-%d", prefix, i))
		ls[i] = locks.NewMutex(names[i])
	}
	gids = make([]uint64, n)
	var held sync.WaitGroup
	held.Add(n)
	started := make(chan struct{}, n)
	for i := range n {
		go func() {
			gids[i] = locks.GoroutineID()
			ls[i].LockAt(fmt.Sprintf("hold%d", i))
			started <- struct{}{}
			held.Done()
			held.Wait()
			ls[(i+1)%n].LockAt(fmt.Sprintf("want%d", i))
		}()
	}
	for range n {
		<-started
	}
	return gids, names
}

// condCycle leaks a 2-cycle that closes through a Cond.Wait relock: g0
// holds A and waits on a condition of B; g1 takes B, notifies, and then
// waits for A, while g0's relock of B waits for g1. The relock is an
// untagged Lock, so its site is "".
func condCycle(prefix string) (gids []uint64, names []string) {
	names = []string{prefix + "-A", prefix + "-B"}
	a, b := locks.NewMutex(names[0]), locks.NewMutex(names[1])
	c := locks.NewCond(prefix+"-cv", b)
	gids = make([]uint64, 2)
	started := make(chan struct{}, 2)
	go func() {
		gids[0] = locks.GoroutineID()
		a.LockAt("cond-holdA")
		//cbvet:ignore lockorder intentional: this test constructs the deadlock the supervisor must confirm
		b.LockAt("cond-holdB")
		started <- struct{}{}
		c.Wait()
	}()
	go func() {
		gids[1] = locks.GoroutineID()
		started <- struct{}{}
		for c.Waiters() == 0 {
			time.Sleep(time.Millisecond)
		}
		b.LockAt("cond-notify")
		c.Notify()
		//cbvet:ignore lockorder intentional: this test constructs the deadlock the supervisor must confirm
		a.LockAt("cond-wantA")
	}()
	<-started
	<-started
	return gids, names
}

// TestSupervisorConfirmsWithoutPolling: with a scan interval of an hour
// the ticker never runs, and a 2-cycle is still confirmed at once —
// the confirmation comes from the wait that closes the cycle.
func TestSupervisorConfirmsWithoutPolling(t *testing.T) {
	e := core.NewEngine()
	sup := New(e, Config{Interval: time.Hour})
	sup.Start()
	defer sup.Stop()

	start := time.Now()
	gids, _ := lockCycle("wg-hour", 2)
	select {
	case <-sup.Confirmed():
	case <-time.After(time.Second):
		t.Fatal("cycle not confirmed within a second of an hour-long scan interval")
	}
	t.Logf("confirmed %v after the cycle began to form", time.Since(start))
	if n := sup.Scans(); n != 0 {
		t.Fatalf("Scans = %d, want 0: the ticker ran", n)
	}
	rs := reportsMentioning(sup.Reports(), "wg-hour-0")
	if len(rs) != 1 || len(rs[0].GIDs) != 2 {
		t.Fatalf("reports = %v, want one 2-cycle", sup.Reports())
	}
	if g := rs[0].GIDs; !(g[0] == gids[0] && g[1] == gids[1]) && !(g[0] == gids[1] && g[1] == gids[0]) {
		t.Fatalf("cycle gids = %v, want %v", g, gids)
	}
}

// TestSupervisorConfirmsEachCycleOnce: cycles of one to four goroutines,
// and one through a Cond.Wait relock, are each confirmed exactly once,
// naming the goroutines, locks and sites in wait order from the least
// goroutine id.
func TestSupervisorConfirmsEachCycleOnce(t *testing.T) {
	shapes := []struct {
		name  string
		build func(prefix string) ([]uint64, []string)
		// wait gives goroutine i's wanted lock (an index into the names)
		// and its site.
		wait func(i int) (lock int, site string)
	}{
		{"self", func(p string) ([]uint64, []string) { return lockCycle(p, 1) },
			func(i int) (int, string) { return 0, "want0" }},
		{"two", func(p string) ([]uint64, []string) { return lockCycle(p, 2) },
			func(i int) (int, string) { return (i + 1) % 2, fmt.Sprintf("want%d", i) }},
		{"three", func(p string) ([]uint64, []string) { return lockCycle(p, 3) },
			func(i int) (int, string) { return (i + 1) % 3, fmt.Sprintf("want%d", i) }},
		{"four", func(p string) ([]uint64, []string) { return lockCycle(p, 4) },
			func(i int) (int, string) { return (i + 1) % 4, fmt.Sprintf("want%d", i) }},
		{"cond", condCycle,
			func(i int) (int, string) { return []int{1, 0}[i], []string{"", "cond-wantA"}[i] }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			e := core.NewEngine()
			sup := testSupervisor(e, Config{})
			sup.Start()
			defer sup.Stop()
			prefix := "wg-once-" + sh.name
			gids, names := sh.build(prefix)

			select {
			case <-sup.Confirmed():
			case <-time.After(5 * time.Second):
				t.Fatal("cycle never confirmed")
			}
			// Give a second report, if any were coming, time to land.
			time.Sleep(20 * time.Millisecond)
			rs := reportsMentioning(sup.Reports(), names[0])
			if len(rs) != 1 {
				t.Fatalf("%d reports name %s, want exactly 1: %v", len(rs), names[0], sup.Reports())
			}
			r := rs[0]
			first := 0
			for i, g := range gids {
				if g < gids[first] {
					first = i
				}
			}
			var wantGIDs []uint64
			var wantLocks, wantSites []string
			for k := range gids {
				i := (first + k) % len(gids)
				lock, site := sh.wait(i)
				wantGIDs = append(wantGIDs, gids[i])
				wantLocks = append(wantLocks, names[lock])
				wantSites = append(wantSites, site)
			}
			if r.Kind != ReportDeadlock || fmt.Sprint(r.GIDs) != fmt.Sprint(wantGIDs) ||
				fmt.Sprint(r.Locks) != fmt.Sprint(wantLocks) || fmt.Sprint(r.Sites) != fmt.Sprint(wantSites) {
				t.Fatalf("report = %+v, want deadlock gids %v locks %v sites %q", r, wantGIDs, wantLocks, wantSites)
			}
			confirmedHere := 0
			for _, in := range e.Incidents() {
				if in.Kind == guard.KindDeadlockConfirmed && strings.Contains(in.Detail, names[0]) {
					confirmedHere++
				}
			}
			if confirmedHere != 1 {
				t.Fatalf("deadlock-confirmed incidents naming %s = %d, want 1", names[0], confirmedHere)
			}
		})
	}
}

// TestSupervisorIgnoresCyclesAfterStop: a cycle that closes after Stop
// is not reported.
func TestSupervisorIgnoresCyclesAfterStop(t *testing.T) {
	e := core.NewEngine()
	sup := testSupervisor(e, Config{})
	sup.Start()
	sup.Stop()
	gids, _ := lockCycle("wg-stopped", 2)
	deadline := time.Now().Add(5 * time.Second)
	for blocked := 0; blocked < 2; {
		blocked = 0
		for _, e := range locks.WaitEdges() {
			if e.Waiter == gids[0] || e.Waiter == gids[1] {
				blocked++
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("cycle never formed")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if rs := sup.Reports(); len(rs) != 0 {
		t.Fatalf("stopped supervisor reported %v", rs)
	}
	select {
	case <-sup.Confirmed():
		t.Fatal("Confirmed closed after Stop")
	default:
	}
}

// busRecorder is a synchronous tap that keeps every record the bus
// carries other than engine events.
type busRecorder struct {
	mu   sync.Mutex
	recs []telemetry.Record
}

func (b *busRecorder) Deliver(rec telemetry.Record) {
	if rec.Kind == telemetry.RecordEvent {
		return
	}
	b.mu.Lock()
	b.recs = append(b.recs, rec)
	b.mu.Unlock()
}

// only fails unless the recorder holds exactly one record, an incident
// of the given kind.
func (b *busRecorder) only(t *testing.T, kind guard.IncidentKind) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.recs) != 1 || b.recs[0].Kind != telemetry.RecordIncident || b.recs[0].Incident.Kind != kind {
		var got []string
		for _, r := range b.recs {
			label := r.Kind.String()
			if r.Kind == telemetry.RecordIncident {
				label += " " + r.Incident.Kind.String()
			}
			got = append(got, label)
		}
		t.Fatalf("non-event bus records = %q, want one %s incident", got, kind)
	}
}

// TestFindingIsOneBusRecord: a confirmed deadlock and a broken
// postponement stall each reach the engine's bus as one incident and
// nothing else. Stop returns after the supervisor's act, so every
// record the finding produced has been delivered when it is counted.
func TestFindingIsOneBusRecord(t *testing.T) {
	t.Run("deadlock", func(t *testing.T) {
		e := core.NewEngine()
		rec := &busRecorder{}
		defer e.Bus().AttachTap(rec).Detach()
		sup := testSupervisor(e, Config{})
		sup.Start()
		defer sup.Stop()

		lockCycle("wg-bus-dl", 2)
		select {
		case <-sup.Confirmed():
		case <-time.After(5 * time.Second):
			t.Fatal("cycle never confirmed")
		}
		sup.Stop()
		rec.only(t, guard.KindDeadlockConfirmed)
	})

	t.Run("stall", func(t *testing.T) {
		e := core.NewEngine()
		rec := &busRecorder{}
		defer e.Bus().AttachTap(rec).Detach()
		sup := testSupervisor(e, Config{})
		sup.Start()
		defer sup.Stop()

		l := locks.NewMutex("wg-bus-stall-L")
		victimOut := make(chan core.Outcome, 1)
		go func() {
			l.LockAt("victim-site")
			defer l.Unlock()
			victimOut <- e.TriggerOutcome(core.NewConflictTrigger("wg.bus.stall.bp", new(int)),
				true, core.Options{Timeout: 30 * time.Second})
		}()
		waitPostponed(t, e, "wg.bus.stall.bp")
		go func() {
			l.LockAt("wedged-site")
			l.Unlock()
		}()
		select {
		case out := <-victimOut:
			if out != core.OutcomeTimeout {
				t.Fatalf("victim outcome = %v, want OutcomeTimeout", out)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("victim never force-released")
		}
		sup.Stop()
		rec.only(t, guard.KindCycleBreak)
	})
}
