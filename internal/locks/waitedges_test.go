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
