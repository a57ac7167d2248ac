package locks

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
)

// edgesFor filters the global wait-edge snapshot down to one lock name;
// the registry is shared by every test in the process, so assertions
// must scope to this test's locks.
func edgesFor(name string) []WaitEdge {
	var out []WaitEdge
	for _, e := range WaitEdges() {
		if e.Lock == name {
			out = append(out, e)
		}
	}
	return out
}

func waitForEdges(t *testing.T, name string, n int) []WaitEdge {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		es := edgesFor(name)
		if len(es) >= n {
			return es
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d wait edges on %s (have %d)", n, name, len(es))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWaitEdgeCarriesSiteClassAndOwner(t *testing.T) {
	cls := NewClass("EdgeClass")
	m := NewClassMutex("we-m", cls)
	m.LockAt("owner-site")
	ownerGID := GoroutineID()
	done := make(chan struct{})
	go func() {
		m.LockAt("waiter-site")
		m.Unlock()
		close(done)
	}()
	es := waitForEdges(t, "we-m", 1)
	e := es[0]
	if e.Site != "waiter-site" {
		t.Fatalf("Site = %q, want waiter-site", e.Site)
	}
	if e.Class != "EdgeClass" {
		t.Fatalf("Class = %q", e.Class)
	}
	if e.OwnerSite != "owner-site" {
		t.Fatalf("OwnerSite = %q", e.OwnerSite)
	}
	if len(e.Owners) != 1 || e.Owners[0] != ownerGID {
		t.Fatalf("Owners = %v, want [%d]", e.Owners, ownerGID)
	}
	m.Unlock()
	<-done
	if len(edgesFor("we-m")) != 0 {
		t.Fatal("edge not cleared after acquisition")
	}
}

func TestWaitingClearedAfterAcquisition(t *testing.T) {
	m := NewMutex("wc")
	m.Lock()
	gidCh := make(chan uint64, 1)
	done := make(chan struct{})
	go func() {
		gidCh <- GoroutineID()
		m.Lock()
		m.Unlock()
		close(done)
	}()
	gid := <-gidCh
	// The registry is shared by every test in the process, so assert
	// only on this goroutine's entry.
	waitUntilWaiting(t, gid, m)
	m.Unlock()
	<-done
	if waitingOn(gid) != nil {
		t.Fatal("waiting entry not cleared after acquisition")
	}
}

// waitingOn returns the lock goroutine gid is recorded as blocked on,
// or nil.
func waitingOn(gid uint64) *Mutex {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.waiting[gid].m
}

// waitUntilWaiting waits until goroutine gid is recorded as blocked on m.
func waitUntilWaiting(t *testing.T, gid uint64, m *Mutex) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for waitingOn(gid) != m {
		if time.Now().After(deadline) {
			t.Fatalf("g%d not registered as waiting on %v", gid, m)
		}
		time.Sleep(time.Millisecond)
	}
}

// blocker is a parked goroutine that blockOn later sets waiting on a
// lock. Goroutine ids do not follow creation order, so a test that needs
// its waiters' ids in some order parks them first and picks their roles
// by id.
type blocker struct {
	gid  uint64
	run  chan func()
	done chan struct{}
}

func newBlocker() *blocker {
	w := &blocker{run: make(chan func()), done: make(chan struct{})}
	gid := make(chan uint64)
	go func() {
		defer close(w.done)
		gid <- GoroutineID()
		(<-w.run)()
	}()
	w.gid = <-gid
	return w
}

// blockOn has w take the locks in hold, in order, and then wait for m at
// site; once it has m it unlocks them all. It returns once the wait is
// recorded.
func (w *blocker) blockOn(t *testing.T, m *Mutex, site string, hold ...*Mutex) {
	t.Helper()
	w.run <- func() {
		for _, h := range hold {
			h.Lock()
		}
		m.LockAt(site)
		m.Unlock()
		for _, h := range hold {
			h.Unlock()
		}
	}
	waitUntilWaiting(t, w.gid, m)
}

// TestBlockedBy: BlockedBy returns the locks a goroutine holds and the
// waits behind them, directly or through another goroutine's lock,
// sorted by waiter. A wait on someone else's lock, or on a lock between
// holders, is not behind it, and a goroutine that holds nothing blocks
// no one.
func TestBlockedBy(t *testing.T) {
	cls := NewClass("BlockedByClass")
	a, b := NewClassMutex("bb-a", cls), NewMutex("bb-b")
	c, other, free := NewMutex("bb-c"), NewMutex("bb-other"), NewMutex("bb-free")
	a.LockAt("hold-a")
	b.LockAt("hold-b")
	me := GoroutineID()

	// A bystander holds other, and someone waits for it.
	bystander := make(chan uint64, 1)
	releaseOther := make(chan struct{})
	go func() {
		other.LockAt("hold-other")
		bystander <- GoroutineID()
		<-releaseOther
		other.Unlock()
	}()
	by := <-bystander
	// Roles go by id: the transitive waiter, which a later pass finds
	// than the direct ones, gets the least id, so the answer comes out
	// sorted only if BlockedBy sorts it.
	ws := []*blocker{newBlocker(), newBlocker(), newBlocker(), newBlocker(), newBlocker()}
	slices.SortFunc(ws, func(x, y *blocker) int { return cmp.Compare(x.gid, y.gid) })
	behind, middle, direct, otherWaiter, freeWaiter := ws[0].gid, ws[1].gid, ws[2].gid, ws[3].gid, ws[4].gid
	ws[3].blockOn(t, other, "want-other")
	// free is between holders: its mutex is locked but no goroutine
	// owns it, as after one holder's release and before the next
	// waiter's acquisition.
	free.mu.Lock()
	ws[4].blockOn(t, free, "want-free")
	ws[1].blockOn(t, b, "want-b", c)
	ws[0].blockOn(t, c, "want-c")
	ws[2].blockOn(t, a, "want-a")

	held, blocked := BlockedBy(me)
	if fmt.Sprint(held) != fmt.Sprint([]*Mutex{a, b}) {
		t.Fatalf("held = %v, want [%v %v]", held, a, b)
	}
	want := []WaitEdge{
		{Waiter: behind, Lock: "bb-c", Site: "want-c", Owners: []uint64{middle}},
		{Waiter: middle, Lock: "bb-b", Site: "want-b", Owners: []uint64{me}, OwnerSite: "hold-b"},
		{Waiter: direct, Lock: "bb-a", Class: "BlockedByClass", Site: "want-a", Owners: []uint64{me}, OwnerSite: "hold-a"},
	}
	if fmt.Sprintf("%+v", blocked) != fmt.Sprintf("%+v", want) {
		t.Fatalf("blocked = %+v\nwant      %+v", blocked, want)
	}
	if held, blocked := BlockedBy(by); len(held) != 1 || held[0] != other ||
		len(blocked) != 1 || blocked[0].Waiter != otherWaiter {
		t.Fatalf("BlockedBy(bystander) = %v, %+v, want [%v] and g%d", held, blocked, other, otherWaiter)
	}
	for _, g := range []uint64{direct, freeWaiter} {
		if held, blocked := BlockedBy(g); held != nil || blocked != nil {
			t.Fatalf("BlockedBy(g%d), which holds nothing = %v, %+v", g, held, blocked)
		}
	}
	for _, e := range WaitEdges() {
		if e.Waiter == freeWaiter && len(e.Owners) != 0 {
			t.Fatalf("wait on a lock between holders has owners %v", e.Owners)
		}
	}

	a.Unlock()
	b.Unlock()
	close(releaseOther)
	free.mu.Unlock()
	for _, w := range ws {
		<-w.done
	}
}

// crossLock leaks two goroutines that each take one of a and b and then
// wait for the other's: a 2-cycle. It returns their ids, the holder of
// a first.
func crossLock(a, b *Mutex) [2]uint64 {
	var gids [2]uint64
	var held sync.WaitGroup
	held.Add(2)
	ids := make(chan struct{}, 2)
	for i, pair := range [2][2]*Mutex{{a, b}, {b, a}} {
		go func() {
			gids[i] = GoroutineID()
			pair[0].LockAt("hold")
			ids <- struct{}{}
			held.Done()
			held.Wait()
			pair[1].LockAt("want")
		}()
	}
	<-ids
	<-ids
	return gids
}

// TestBlockedByOnACycle: asked about a goroutine on a lock cycle,
// BlockedBy names the rest of the cycle, and not the goroutine's own
// wait, though that wait is behind its own lock too. A lock unlocked by
// a goroutine other than its locker leaves the locker's held stack, so
// the locker is not reported holding it, nor blocking the cycle's waits
// on it.
func TestBlockedByOnACycle(t *testing.T) {
	a, b := NewMutex("bb-cycle-a"), NewMutex("bb-cycle-b")
	locker := make(chan uint64, 1)
	go func() {
		a.Lock()
		locker <- GoroutineID()
	}()
	stale := <-locker
	a.Unlock()
	gids := crossLock(a, b)
	waitUntilWaiting(t, gids[0], b)
	waitUntilWaiting(t, gids[1], a)

	held, blocked := BlockedBy(gids[0])
	if len(held) != 1 || held[0] != a || len(blocked) != 1 ||
		blocked[0].Waiter != gids[1] || blocked[0].Lock != "bb-cycle-a" {
		t.Fatalf("BlockedBy(g%d) = %v, %+v, want [%v] and g%d's wait on it", gids[0], held, blocked, a, gids[1])
	}
	answered := make(chan []*Mutex, 1)
	go func() {
		held, _ := BlockedBy(stale)
		answered <- held
	}()
	select {
	case held := <-answered:
		if len(held) != 0 {
			t.Fatalf("BlockedBy(stale locker) held = %v, want none", held)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("BlockedBy(stale locker) never returned")
	}
	if held := HeldBy(stale); len(held) != 0 {
		t.Fatalf("HeldBy(stale locker) = %v, want none", held)
	}
}

// TestWatchCyclesDeliversClosingCycle: the wait that closes a 2-cycle
// hands the watch one cycle, in wait order, with each edge's owner the
// next edge's waiter.
func TestWatchCyclesDeliversClosingCycle(t *testing.T) {
	w := WatchCycles()
	defer w.Stop()
	a, b := NewMutex("wc-cross-a"), NewMutex("wc-cross-b")
	gids := crossLock(a, b)

	select {
	case <-w.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("no cycle delivered")
	}
	var got [][]WaitEdge
	for _, c := range w.Take() {
		if c[0].Lock == "wc-cross-a" || c[0].Lock == "wc-cross-b" {
			got = append(got, c)
		}
	}
	if len(got) != 1 {
		t.Fatalf("delivered %d cycles on the test's locks, want 1: %v", len(got), got)
	}
	c := got[0]
	if len(c) != 2 {
		t.Fatalf("cycle has %d edges, want 2: %v", len(c), c)
	}
	want := map[uint64]string{gids[0]: b.Name(), gids[1]: a.Name()}
	for i, e := range c {
		if e.Lock != want[e.Waiter] || e.Site != "want" || e.OwnerSite != "hold" {
			t.Fatalf("edge %d = %+v, want g%d waiting at want on %v held at hold", i, e, e.Waiter, want[e.Waiter])
		}
		if next := c[(i+1)%len(c)].Waiter; len(e.Owners) != 1 || e.Owners[0] != next {
			t.Fatalf("edge %d owners = %v, want [g%d]", i, e.Owners, next)
		}
	}
	// A bystander that waits on a lock of the cycle walks into it and
	// out again: it closes no cycle, and the old one is not delivered
	// again.
	go a.LockAt("bystander")
	waitForEdges(t, "wc-cross-a", 2)
	for _, c := range w.Take() {
		for _, e := range c {
			if e.Lock == "wc-cross-a" || e.Lock == "wc-cross-b" {
				t.Fatalf("a wait into a closed cycle delivered %v", c)
			}
		}
	}
}

// TestWatchCyclesStop: a cycle that closes after Stop is not queued.
func TestWatchCyclesStop(t *testing.T) {
	w := WatchCycles()
	w.Stop()
	gids := crossLock(NewMutex("wc-stop-a"), NewMutex("wc-stop-b"))
	deadline := time.Now().Add(5 * time.Second)
	for blocked := 0; blocked < 2; {
		blocked = 0
		for _, e := range WaitEdges() {
			if e.Waiter == gids[0] || e.Waiter == gids[1] {
				blocked++
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("cycle never formed")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-w.Ready():
		t.Fatalf("stopped watch was signalled: %v", w.Take())
	default:
	}
	if cs := w.Take(); len(cs) != 0 {
		t.Fatalf("stopped watch queued %v", cs)
	}
}

// TestOrderedLocksNeverCycle: goroutines that contend for locks taken in
// one global order never close a cycle, however their waits and
// ownership interleave. Run it at GOMAXPROCS=1 and 2 (CI does).
func TestOrderedLocksNeverCycle(t *testing.T) {
	const goroutines, nlocks = 8, 4
	iters := 3000
	if testing.Short() {
		iters = 300
	}
	w := WatchCycles()
	defer w.Stop()
	ls := make([]*Mutex, nlocks)
	mine := map[string]bool{}
	for i := range ls {
		ls[i] = NewMutex(fmt.Sprintf("ordered-%d", i))
		mine[ls[i].Name()] = true
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 1))
			for range iters {
				// A random non-empty subset, locked in the global order.
				set := 1 + rng.IntN(1<<nlocks-1)
				for i, l := range ls {
					if set&(1<<i) != 0 {
						l.Lock()
					}
				}
				for i := nlocks - 1; i >= 0; i-- {
					if set&(1<<i) != 0 {
						ls[i].Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range w.Take() {
		for _, e := range c {
			if mine[e.Lock] {
				t.Fatalf("ordered acquisitions reported a cycle: %v", c)
			}
		}
	}
}
