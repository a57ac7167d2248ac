package locks

import (
	"fmt"
	"math/rand/v2"
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
	if e.Since.IsZero() {
		t.Fatal("Since not stamped")
	}
	if e.Mutex() != m {
		t.Fatal("edge lost the lock identity")
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
	waitingOn := func() *Mutex {
		reg.mu.Lock()
		defer reg.mu.Unlock()
		return reg.waiting[gid].m
	}
	deadline := time.Now().Add(5 * time.Second)
	for waitingOn() != m {
		if time.Now().After(deadline) {
			t.Fatal("blocked goroutine not registered as waiting")
		}
		time.Sleep(time.Millisecond)
	}
	m.Unlock()
	<-done
	if waitingOn() != nil {
		t.Fatal("waiting entry not cleared after acquisition")
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
	want := map[uint64]*Mutex{gids[0]: b, gids[1]: a}
	for i, e := range c {
		if e.Mutex() != want[e.Waiter] || e.Site != "want" || e.OwnerSite != "hold" {
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
	mine := map[*Mutex]bool{}
	for i := range ls {
		ls[i] = NewMutex(fmt.Sprintf("ordered-%d", i))
		mine[ls[i]] = true
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
			if mine[e.Mutex()] {
				t.Fatalf("ordered acquisitions reported a cycle: %v", c)
			}
		}
	}
}
