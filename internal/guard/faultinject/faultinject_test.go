package faultinject

import (
	"reflect"
	"testing"
	"time"

	"cbreak/internal/guard"
)

func TestPlanMatchesSideAndOccurrence(t *testing.T) {
	p := NewPlan().
		PanicLocal("bp", FirstSide, 2).
		Drop("bp", SecondSide)

	// First-side arrivals: only the 2nd gets the panic.
	if f := p.Arrival("bp", true); !f.Zero() {
		t.Fatalf("first arrival #1 injected %+v, want nothing", f)
	}
	if f := p.Arrival("bp", true); !f.PanicLocal || f.Drop {
		t.Fatalf("first arrival #2 injected %+v, want PanicLocal only", f)
	}
	if f := p.Arrival("bp", true); !f.Zero() {
		t.Fatalf("first arrival #3 injected %+v, want nothing", f)
	}
	// Second-side rule has no occurrence list: every arrival drops.
	for i := 0; i < 3; i++ {
		if f := p.Arrival("bp", false); !f.Drop || f.PanicLocal {
			t.Fatalf("second arrival #%d injected %+v, want Drop only", i+1, f)
		}
	}
	// Other breakpoints are untouched.
	if f := p.Arrival("other", true); !f.Zero() {
		t.Fatalf("unrelated breakpoint injected %+v", f)
	}

	if got := p.Arrivals("bp", true); got != 3 {
		t.Fatalf("Arrivals(bp, first) = %d, want 3", got)
	}
	if got := p.Arrivals("bp", false); got != 3 {
		t.Fatalf("Arrivals(bp, second) = %d, want 3", got)
	}
}

func TestPlanOrdinalsArePerSide(t *testing.T) {
	p := NewPlan().PanicLocal("bp", SecondSide, 1)
	// A first-side arrival must not consume the second side's ordinal 1.
	if f := p.Arrival("bp", true); !f.Zero() {
		t.Fatalf("first side injected %+v", f)
	}
	if f := p.Arrival("bp", false); !f.PanicLocal {
		t.Fatalf("second side arrival #1 injected %+v, want PanicLocal", f)
	}
}

func TestPlanMergesOverlappingRules(t *testing.T) {
	p := NewPlan().
		PanicAction("bp", BothSides, 1).
		StallAction("bp", BothSides, 5*time.Millisecond, 1).
		StallAction("bp", FirstSide, 2*time.Millisecond, 1)
	f := p.Arrival("bp", true)
	if !f.PanicAction || f.StallAction != 5*time.Millisecond {
		t.Fatalf("merged fault %+v, want PanicAction with the max stall", f)
	}
}

// run replays a fixed arrival sequence against a freshly built plan and
// returns the injected faults and the applied-record.
func runSequence(build func() *Plan) ([]guard.Fault, []Applied) {
	p := build()
	arrivals := []struct {
		bp    string
		first bool
	}{
		{"a", true}, {"a", false}, {"b", true}, {"a", true},
		{"b", false}, {"a", false}, {"a", true}, {"b", true},
	}
	var faults []guard.Fault
	for _, ar := range arrivals {
		faults = append(faults, p.Arrival(ar.bp, ar.first))
	}
	return faults, p.Applied()
}

func TestPlanDeterminism(t *testing.T) {
	build := func() *Plan {
		return NewPlan().
			PanicLocal("a", FirstSide, 2).
			Drop("b", SecondSide).
			PanicAction("a", SecondSide, 1).
			StallAction("b", FirstSide, time.Millisecond, 2)
	}
	f1, a1 := runSequence(build)
	f2, a2 := runSequence(build)
	if !reflect.DeepEqual(f1, f2) {
		t.Fatalf("same plan, same arrivals, different faults:\n%+v\n%+v", f1, f2)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("same plan, same arrivals, different applied records:\n%+v\n%+v", a1, a2)
	}
	if len(a1) == 0 {
		t.Fatal("no faults applied; the sequence should trigger several")
	}
	// Spot-check the applied record identifies arrivals precisely.
	want := Applied{Breakpoint: "a", First: false, Occurrence: 1, Fault: guard.Fault{PanicAction: true}}
	if a1[0] != want {
		t.Fatalf("first applied = %+v, want %+v", a1[0], want)
	}
}

func TestPlanConcurrentUse(t *testing.T) {
	p := NewPlan().Drop("bp", BothSides)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				p.Arrival("bp", j%2 == 0)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if got := p.Arrivals("bp", true) + p.Arrivals("bp", false); got != 400 {
		t.Fatalf("total arrivals = %d, want 400", got)
	}
	if got := len(p.Applied()); got != 400 {
		t.Fatalf("applied = %d, want 400", got)
	}
}
