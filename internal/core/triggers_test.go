package core

import (
	"testing"
	"testing/quick"

	"cbreak/internal/locks"
)

func TestConflictGlobalSymmetric(t *testing.T) {
	// phi_t1t2 for conflicts (obj identity) must be symmetric.
	f := func(sameObj, sameName bool) bool {
		a := new(int)
		b := a
		if !sameObj {
			b = new(int)
		}
		nameB := "x"
		if !sameName {
			nameB = "y"
		}
		t1 := NewConflictTrigger("x", a)
		t2 := NewConflictTrigger(nameB, b)
		return t1.PredicateGlobal(t2) == t2.PredicateGlobal(t1) &&
			t1.PredicateGlobal(t2) == (sameObj && sameName)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockGlobalSymmetric(t *testing.T) {
	locks := []*int{new(int), new(int), new(int)}
	f := func(h1, w1, h2, w2 uint8) bool {
		a := NewDeadlockTrigger("d", locks[h1%3], locks[w1%3])
		b := NewDeadlockTrigger("d", locks[h2%3], locks[w2%3])
		want := a.Held == b.Want && a.Want == b.Held
		return a.PredicateGlobal(b) == want && b.PredicateGlobal(a) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicityGlobal(t *testing.T) {
	obj := new(int)
	a := NewAtomicityTrigger("at", obj)
	b := NewAtomicityTrigger("at", obj)
	c := NewAtomicityTrigger("at", new(int))
	if !a.PredicateGlobal(b) {
		t.Error("same object should match")
	}
	if a.PredicateGlobal(c) {
		t.Error("different objects should not match")
	}
	if !a.PredicateLocal() {
		t.Error("atomicity local predicate should be true")
	}
	if a.Name() != "at" {
		t.Errorf("Name = %q", a.Name())
	}
}

func TestNotifyGlobal(t *testing.T) {
	cond := new(int)
	a := NewNotifyTrigger("nt", cond)
	b := NewNotifyTrigger("nt", cond)
	c := NewNotifyTrigger("nt", new(int))
	if !a.PredicateGlobal(b) || a.PredicateGlobal(c) {
		t.Error("notify trigger object identity broken")
	}
	if !a.PredicateLocal() || a.Name() != "nt" {
		t.Error("notify trigger local/name broken")
	}
}

func TestCrossTypeTriggersNeverMatch(t *testing.T) {
	obj := new(int)
	conflict := NewConflictTrigger("n", obj)
	deadlock := NewDeadlockTrigger("n", obj, obj)
	atomicity := NewAtomicityTrigger("n", obj)
	notify := NewNotifyTrigger("n", obj)
	pred := NewPredTrigger("n", obj, nil, nil)
	all := []Trigger{conflict, deadlock, atomicity, notify, pred}
	for i, a := range all {
		for j, b := range all {
			if i == j {
				continue
			}
			if a.PredicateGlobal(b) {
				t.Errorf("trigger %T matched %T", a, b)
			}
		}
	}
}

func TestPredTriggerNilPredicates(t *testing.T) {
	a := NewPredTrigger("p", 1, nil, nil)
	b := NewPredTrigger("p", 2, nil, nil)
	if !a.PredicateLocal() {
		t.Error("nil Local should be true")
	}
	if !a.PredicateGlobal(b) {
		t.Error("nil Global should match same name")
	}
	c := NewPredTrigger("q", 3, nil, nil)
	if a.PredicateGlobal(c) {
		t.Error("different names must not match")
	}
}

func TestGoroutineIDStableAndDistinct(t *testing.T) {
	id1 := locks.GoroutineID()
	id2 := locks.GoroutineID()
	if id1 == 0 {
		t.Fatal("GoroutineID returned 0")
	}
	if id1 != id2 {
		t.Fatalf("GoroutineID not stable within a goroutine: %d vs %d", id1, id2)
	}
	ch := make(chan uint64)
	go func() { ch <- locks.GoroutineID() }()
	if other := <-ch; other == id1 {
		t.Fatalf("two goroutines share id %d", other)
	}
}
