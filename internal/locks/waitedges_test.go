package locks

import (
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

// Regression: RWMutex read-side waiters must register in the registry's
// waiting map like write-side ones, or the wait-for graph misses reader
// edges entirely.
func TestRWMutexReadWaiterRegisters(t *testing.T) {
	rw := NewRWMutex("we-rw-read")
	rw.Lock() // write-held: readers must queue
	writerGID := GoroutineID()
	done := make(chan struct{})
	go func() {
		rw.RLockAt("read-site")
		rw.RUnlock()
		close(done)
	}()
	es := waitForEdges(t, "we-rw-read", 1)
	e := es[0]
	if e.Site != "read-site" {
		t.Fatalf("Site = %q", e.Site)
	}
	if len(e.Owners) != 1 || e.Owners[0] != writerGID {
		t.Fatalf("Owners = %v, want writer %d", e.Owners, writerGID)
	}
	rw.Unlock()
	<-done
	if len(edgesFor("we-rw-read")) != 0 {
		t.Fatal("reader edge not cleared after acquisition")
	}
}

func TestRWMutexWriteWaiterSeesAllReaders(t *testing.T) {
	rw := NewRWMutex("we-rw-write")
	const readers = 3
	gids := make(chan uint64, readers)
	release := make(chan struct{})
	for i := 0; i < readers; i++ {
		go func() {
			rw.RLock()
			gids <- GoroutineID()
			<-release
			rw.RUnlock()
		}()
	}
	want := map[uint64]bool{}
	for i := 0; i < readers; i++ {
		want[<-gids] = true
	}
	done := make(chan struct{})
	go func() {
		rw.LockAt("write-site")
		rw.Unlock()
		close(done)
	}()
	es := waitForEdges(t, "we-rw-write", 1)
	e := es[0]
	if len(e.Owners) != readers {
		t.Fatalf("Owners = %v, want the %d readers", e.Owners, readers)
	}
	for _, g := range e.Owners {
		if !want[g] {
			t.Fatalf("owner %d is not one of the readers %v", g, want)
		}
	}
	close(release)
	<-done
	if len(edgesFor("we-rw-write")) != 0 {
		t.Fatal("writer edge not cleared after acquisition")
	}
}

func TestRWMutexWriteOwnerVisibleThroughShadow(t *testing.T) {
	rw := NewRWMutex("we-rw-owner")
	rw.LockAt("w-site")
	gid := GoroutineID()
	owner, site := rw.Shadow().Owner()
	if owner != gid || site != "w-site" {
		t.Fatalf("shadow owner = %d@%q, want %d@w-site", owner, site, gid)
	}
	rw.Unlock()
	if owner, _ := rw.Shadow().Owner(); owner != 0 {
		t.Fatalf("shadow owner = %d after unlock, want 0", owner)
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
