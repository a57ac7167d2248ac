package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestStatsConservation checks the engine's accounting invariant: every
// arrival fails the local predicate, is postponed, matches instantly
// (one instant match per hit, the arrival that completes the group at
// any arity), or is shed by the overload layer. So for any workload:
//
//	Arrivals == LocalFalses + Postpones + Hits + Sheds
//
// The plans run with no overload config, under a per-shard cap of one
// waiter, and at a breakpoint that lonely timeouts have tripped, so that
// each reason to shed fires.
func TestStatsConservation(t *testing.T) {
	cases := []struct {
		name   string
		cfg    *OverloadConfig
		trip   bool          // trip the breakpoint before the plan
		spread time.Duration // the plan's arrivals start within this long
	}{
		{"no overload", nil, false, 3 * time.Millisecond},
		{"per-shard cap", &OverloadConfig{MaxPerShard: 1}, false, 3 * time.Millisecond},
		// Tripped on 5ms timeouts, the breakpoint sheds for 50ms and
		// then probes: the plan spans both.
		{"timeout-rate trip", &OverloadConfig{TimeoutRate: 0.9}, true, 100 * time.Millisecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				e := NewEngine()
				e.DefaultTimeout = 5 * time.Millisecond
				e.SetOverloadConfig(c.cfg)
				if c.trip {
					for i := 0; i < tripMinSamples; i++ {
						e.TriggerHere(NewConflictTrigger("inv", new(int)), true, Options{})
					}
				}
				runConservationPlan(e, seed, c.spread)
				st := e.Stats("inv")
				got := st.LocalFalses() + st.Postpones() + st.Hits() + st.Sheds()
				if st.Arrivals() != got {
					t.Fatalf("seed %d: arrivals=%d != localFalse+postpones+hits+sheds=%d (%s)",
						seed, st.Arrivals(), got, st)
				}
				if shed := st.Sheds() > 0; shed != (c.cfg != nil) {
					t.Fatalf("seed %d: sheds=%d with overload config %+v", seed, st.Sheds(), c.cfg)
				}
				// Each hit joins one instant matcher to at least one postponed waiter.
				if st.Hits() > st.Postpones() {
					t.Fatalf("seed %d: hits=%d > postpones=%d", seed, st.Hits(), st.Postpones())
				}
				// No waiter may leak.
				if n := e.PostponedCount("inv"); n != 0 {
					t.Fatalf("seed %d: %d waiters leaked", seed, n)
				}
			}
		})
	}
}

// runConservationPlan runs 40 arrivals on breakpoint "inv", started at
// random within spread. One in three is a slot of an arity-3 group on
// the same breakpoint; the rest are two-way.
func runConservationPlan(e *Engine, seed int64, spread time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	objs := []*int{new(int), new(int), new(int)}
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		obj := objs[rng.Intn(len(objs))]
		arity := 2 + rng.Intn(3)/2
		slot := rng.Intn(arity)
		delay := time.Duration(rng.Intn(int(spread/time.Microsecond))) * time.Microsecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(delay)
			tr := NewConflictTrigger("inv", obj)
			if arity == 2 {
				e.TriggerHere(tr, slot == 0, Options{})
			} else {
				e.TriggerHereMulti(tr, slot, arity, Options{})
			}
		}()
	}
	wg.Wait()
}

// TestNoLeakUnderChurn hammers the engine with matching and
// non-matching arrivals concurrently and verifies the postponed set
// drains and all goroutines return.
func TestNoLeakUnderChurn(t *testing.T) {
	e := NewEngine()
	e.DefaultTimeout = 2 * time.Millisecond
	var wg sync.WaitGroup
	shared := new(int)
	for i := 0; i < 64; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			obj := shared
			if i%8 == 7 {
				obj = new(int) // a loner that can never match
			}
			for j := 0; j < 20; j++ {
				e.TriggerHere(NewConflictTrigger("churn", obj), (i+j)%2 == 0, Options{})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("churn workload hung")
	}
	if n := e.PostponedCount("churn"); n != 0 {
		t.Fatalf("%d waiters leaked", n)
	}
	st := e.Stats("churn")
	if st.Arrivals() != 64*20 {
		t.Fatalf("arrivals = %d, want %d", st.Arrivals(), 64*20)
	}
	if st.Arrivals() != st.LocalFalses()+st.Postpones()+st.Hits() {
		t.Fatalf("conservation violated: %s", st)
	}
}

// TestTimeoutAccuracy verifies a lonely trigger's pause is close to the
// requested timeout — the pause time T is the paper's main tuning knob,
// so it must be honored.
func TestTimeoutAccuracy(t *testing.T) {
	e := NewEngine()
	for _, timeout := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond} {
		start := time.Now()
		e.TriggerHere(NewConflictTrigger("acc", new(int)), true, Options{Timeout: timeout})
		elapsed := time.Since(start)
		if elapsed < timeout || elapsed > timeout+40*time.Millisecond {
			t.Fatalf("timeout %v: paused %v", timeout, elapsed)
		}
	}
}

// TestConcurrentEnginesIndependent verifies engines don't share state:
// waiters on one engine never match triggers on another.
func TestConcurrentEnginesIndependent(t *testing.T) {
	e1, e2 := NewEngine(), NewEngine()
	e1.DefaultTimeout = 20 * time.Millisecond
	e2.DefaultTimeout = 20 * time.Millisecond
	obj := new(int)
	var hit1, hit2 bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); hit1 = e1.TriggerHere(NewConflictTrigger("x", obj), true, Options{}) }()
	go func() { defer wg.Done(); hit2 = e2.TriggerHere(NewConflictTrigger("x", obj), false, Options{}) }()
	wg.Wait()
	if hit1 || hit2 {
		t.Fatal("cross-engine match")
	}
}
