package cbreak

import (
	"sync"
	"testing"
	"time"
)

// The facade tests exercise the public API end to end: a downstream
// user's view of the library.

func TestFacadeConflictBreakpoint(t *testing.T) {
	Reset()
	SetEnabled(true)
	defer Reset()
	obj := new(int)
	var order []string
	var mu sync.Mutex
	rec := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		TriggerHereAnd(NewConflictTrigger("facade-bp", obj), true,
			Options{Timeout: time.Second}, func() { rec("write") })
	}()
	go func() {
		defer wg.Done()
		if TriggerHere(NewConflictTrigger("facade-bp", obj), false, time.Second) {
			rec("read")
		}
	}()
	wg.Wait()
	if len(order) != 2 || order[0] != "write" || order[1] != "read" {
		t.Fatalf("order = %v", order)
	}
}

func TestFacadeEnableDisable(t *testing.T) {
	Reset()
	defer func() { SetEnabled(true); Reset() }()
	SetEnabled(false)
	if Enabled() {
		t.Fatal("Enabled after SetEnabled(false)")
	}
	start := time.Now()
	if TriggerHere(NewConflictTrigger("off-bp", new(int)), true, time.Second) {
		t.Fatal("disabled facade hit")
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("disabled trigger paused")
	}
	SetEnabled(true)
	if !Enabled() {
		t.Fatal("not Enabled after SetEnabled(true)")
	}
}

func TestFacadeEngineAndStats(t *testing.T) {
	e := NewEngine()
	if e == Default() {
		t.Fatal("NewEngine returned the default engine")
	}
	obj := new(int)
	out := e.TriggerOutcome(NewConflictTrigger("stats-bp", obj), true,
		Options{Timeout: 5 * time.Millisecond})
	if out != OutcomeTimeout {
		t.Fatalf("outcome = %v", out)
	}
	st := e.Stats("stats-bp")
	if st.Arrivals() != 1 || st.Timeouts() != 1 {
		t.Fatalf("stats: %s", st)
	}
	if OutcomeHit.String() != "hit" || OutcomeDisabled.String() != "disabled" ||
		OutcomeLocalFalse.String() != "local-false" {
		t.Fatal("outcome constants broken")
	}
}

func TestFacadeTriggerClasses(t *testing.T) {
	obj := new(int)
	la, lb := new(int), new(int)
	if NewConflictTrigger("c", obj).Name() != "c" ||
		NewAtomicityTrigger("a", obj).Name() != "a" ||
		NewNotifyTrigger("n", obj).Name() != "n" {
		t.Fatal("trigger names broken")
	}
	d1 := NewDeadlockTrigger("d", la, lb)
	d2 := NewDeadlockTrigger("d", lb, la)
	if !d1.PredicateGlobal(d2) {
		t.Fatal("crossed deadlock triggers must match")
	}
	p := NewPredTrigger("p", 7, func() bool { return true },
		func(o *PredTrigger) bool { return o.State.(int) == 7 })
	if !p.PredicateLocal() || !p.PredicateGlobal(NewPredTrigger("p", 7, nil, nil)) {
		t.Fatal("pred trigger broken")
	}
}

// facadeA and facadeB are the objects facadeArrive's triggers reference.
var facadeA, facadeB = new(int), new(int)

// facadeArrive makes one arrival on the default engine with a trigger of
// the given class (0 conflict, 1 atomicity, 2 notify, 3 deadlock, 4
// pred), built in place through the facade as the apps build theirs:
// TriggerHere when opts is nil, TriggerHereOpts otherwise. The two sides
// of each class match each other.
func facadeArrive(class int, name string, first bool, opts *Options) bool {
	held, want := facadeA, facadeB
	if !first {
		held, want = want, held
	}
	var t Trigger
	switch class {
	case 0:
		t = NewConflictTrigger(name, facadeA)
	case 1:
		t = NewAtomicityTrigger(name, facadeA)
	case 2:
		t = NewNotifyTrigger(name, facadeA)
	case 3:
		t = NewDeadlockTrigger(name, held, want)
	default:
		t = NewPredTrigger(name, facadeA, nil, func(o *PredTrigger) bool { return o.State != nil })
	}
	if opts == nil {
		return TriggerHere(t, first, 0)
	}
	return TriggerHereOpts(t, first, *opts)
}

// facadeOwnFalseBP is the breakpoint facadeArriveOwnFalse arrives at.
const facadeOwnFalseBP = "facade.alloc.own"

// facadeArriveOwnFalse makes one arrival at facadeOwnFalseBP with a
// PredTrigger whose own Local is false: pre when it is not nil, else one
// built in place; through h when it is not nil, else through
// TriggerHere. It reports a hit.
func facadeArriveOwnFalse(h *Breakpoint, pre Trigger) bool {
	t := pre
	if t == nil {
		t = NewPredTrigger(facadeOwnFalseBP, facadeA, func() bool { return false }, nil)
	}
	if h != nil {
		return h.Trigger(t, true, Options{})
	}
	return TriggerHere(t, true, 0)
}

// dropTap receives bus records and drops them.
type dropTap struct{}

func (dropTap) Deliver(TelemetryRecord) {}

// TestFacadeRejectedArrivalsDoNotAllocate: through the facade, an
// arrival that is not postponed allocates nothing with its trigger built
// in place, for every class, on the disabled path (engine wide and per
// breakpoint), the local-false path and the bound-spent path. The
// local-false path is also taken on the trigger's own predicate: a
// PredTrigger with Local false, built in place and pre-built, through a
// handle and through TriggerHere, with no listener and with a tap.
func TestFacadeRejectedArrivalsDoNotAllocate(t *testing.T) {
	Reset()
	defer func() { SetEnabled(true); Reset() }()
	classes := []string{"conflict", "atomicity", "notify", "deadlock", "pred"}
	for c, class := range classes {
		// Spend each class's bound: one hit on its bound breakpoint.
		name := "facade.alloc.bound." + class
		var wg sync.WaitGroup
		for _, first := range []bool{true, false} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				facadeArrive(c, name, first, &Options{Bound: 1, Timeout: 5 * time.Second})
			}()
		}
		wg.Wait()
		if n := Stats(name).Hits(); n != 1 {
			t.Fatalf("%s: %d set-up hits, want 1", name, n)
		}
		SetBreakpointEnabled("facade.alloc.off."+class, false)
	}
	never := &Options{ExtraLocal: func() bool { return false }}
	for _, tc := range []struct {
		path, bp  string
		opts      *Options
		engineOff bool
	}{
		{"breakpoint disabled", "off", nil, false},
		{"local-false", "local", never, false},
		{"bound spent", "bound", &Options{Bound: 1}, false},
		{"engine disabled", "local", nil, true},
	} {
		SetEnabled(!tc.engineOff)
		for c, class := range classes {
			name := "facade.alloc." + tc.bp + "." + class
			if facadeArrive(c, name, true, tc.opts) {
				t.Fatalf("%s, %s: hit", class, tc.path)
			}
			if n := testing.AllocsPerRun(200, func() { facadeArrive(c, name, true, tc.opts) }); n != 0 {
				t.Errorf("%s, %s: %v allocs, want 0", class, tc.path, n)
			}
		}
	}
	SetEnabled(true)
	own := Register(facadeOwnFalseBP)
	pre := NewPredTrigger(facadeOwnFalseBP, nil, func() bool { return false }, nil)
	checkOwnFalse := func(listener string) {
		t.Helper()
		for _, p := range []struct {
			built string
			pre   Trigger
		}{{"built in place", nil}, {"pre-built", pre}} {
			for _, v := range []struct {
				api string
				h   *Breakpoint
			}{{"handle", own}, {"TriggerHere", nil}} {
				before := own.Stats().LocalFalses()
				if facadeArriveOwnFalse(v.h, p.pre) || own.Stats().LocalFalses() != before+1 {
					t.Fatalf("pred with Local false, %s, through %s: not a local-false arrival", p.built, v.api)
				}
				if n := testing.AllocsPerRun(200, func() { facadeArriveOwnFalse(v.h, p.pre) }); n != 0 {
					t.Errorf("pred with Local false, %s, through %s, %s: %v allocs, want 0", p.built, v.api, listener, n)
				}
			}
		}
	}
	checkOwnFalse("no listener")
	tap := Telemetry().AttachTap(dropTap{})
	checkOwnFalse("one tap")
	tap.Detach()
}

func TestFacadeLocksAndClassPred(t *testing.T) {
	caret := NewLockClass("BasicCaret")
	m := NewClassMutex("caret-lock", caret)
	pred := ClassHeldPred(caret)
	if pred() {
		t.Fatal("class held before lock")
	}
	m.Lock()
	if !pred() {
		t.Fatal("class not held while locked")
	}
	m.Unlock()

	plain := NewMutex("plain")
	plain.With(func() {})
	cond := NewCond("cv", plain)
	plain.Lock()
	if cond.WaitTimeout(5 * time.Millisecond) {
		t.Fatal("empty cond wait succeeded")
	}
	plain.Unlock()
}

func TestFacadeMemoryAndDetector(t *testing.T) {
	sp := NewMemSpace()
	d := NewDetector()
	sp.Trace(d)
	c := NewMemCell(sp, "x", 0)
	gids := make(chan struct{})
	go func() { c.Store("w1", 1); close(gids) }()
	<-gids
	c.Store("w2", 2)
	reports := d.Reports()
	if len(reports) == 0 {
		t.Fatal("detector saw no race")
	}
}

func TestFacadeProbabilityModel(t *testing.T) {
	base := ProbExactBase(100000, 2)
	with := ProbWithTrigger(100000, 10, 2, 1000)
	gain := ProbImprovement(100000, 10, 2, 1000)
	if with <= base || gain < 100 {
		t.Fatalf("model: base=%v with=%v gain=%v", base, with, gain)
	}
}

func TestFacadeScheduleAndRegression(t *testing.T) {
	s := NewSchedule(time.Second, "a", "b")
	if !s.Reach("a") || !s.Reach("b") || !s.Done() {
		t.Fatal("schedule broken")
	}
	e := NewEngine()
	reg := &Regression{Engine: e, Required: []string{"r-bp"}}
	obj := new(int)
	res := reg.Run(func() {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			e.TriggerHere(NewConflictTrigger("r-bp", obj), true, Options{Timeout: time.Second})
		}()
		go func() {
			defer wg.Done()
			e.TriggerHere(NewConflictTrigger("r-bp", obj), false, Options{Timeout: time.Second})
		}()
		wg.Wait()
	})
	if !res.AllHit {
		t.Fatalf("regression: %s", res)
	}
}

func TestFacadeMultiWay(t *testing.T) {
	Reset()
	defer Reset()
	obj := new(int)
	var seq []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for slot := 0; slot < 3; slot++ {
		slot := slot
		wg.Add(1)
		go func() {
			defer wg.Done()
			TriggerHereMultiAnd(NewConflictTrigger("facade-3way", obj), slot, 3,
				Options{Timeout: 2 * time.Second}, func() {
					mu.Lock()
					seq = append(seq, slot)
					mu.Unlock()
				})
		}()
	}
	wg.Wait()
	if len(seq) != 3 || seq[0] != 0 || seq[1] != 1 || seq[2] != 2 {
		t.Fatalf("multi order = %v", seq)
	}
	if !TriggerHereMulti(NewConflictTrigger("facade-solo", obj), 0, 2,
		Options{Timeout: time.Millisecond}) == false {
		t.Fatal("lonely multi slot should time out")
	}
}

func TestFacadeScheduleGraph(t *testing.T) {
	g := NewScheduleGraph(2 * time.Second)
	g.Point("setup").Point("use", "setup")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		g.Reach("use")
		mu.Lock()
		order = append(order, "use")
		mu.Unlock()
	}()
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		g.Reach("setup")
		mu.Lock()
		order = append(order, "setup")
		mu.Unlock()
	}()
	wg.Wait()
	if len(order) != 2 || order[0] != "setup" || order[1] != "use" {
		t.Fatalf("order = %v", order)
	}
}

func TestFacadeEngineEventsAndOnHit(t *testing.T) {
	e := NewEngine()
	sub := e.Bus().Subscribe(64) // room for every record of one hit pair
	defer sub.Cancel()
	hits := 0
	e.SetOnHit(func(name string, a, p Trigger) { hits++ })
	obj := new(int)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e.TriggerHere(NewConflictTrigger("facade-ev", obj), true, Options{Timeout: time.Second})
	}()
	go func() {
		defer wg.Done()
		e.TriggerHere(NewConflictTrigger("facade-ev", obj), false, Options{Timeout: time.Second})
	}()
	wg.Wait()
	if hits != 1 {
		t.Fatalf("OnHit fired %d times", hits)
	}
	if len(sub.C()) == 0 {
		t.Fatal("no events recorded")
	}
}
