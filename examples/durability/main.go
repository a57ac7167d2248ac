// Command durability demonstrates the durable event/incident tee
// through the public cbreak facade: a DurableSink implementation
// receives a synchronous copy of every engine event and guard incident,
// so a crashed process leaves its breakpoint history behind instead of
// losing it with the heap. The canonical sink journals to a crash-safe
// WAL (cbtables -durable-events); this demo uses an in-memory sink so
// its output stays deterministic and diffable.
package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cbreak"
)

func section(name string) { fmt.Printf("== %s ==\n", name) }

// memSink is a minimal DurableSink: it buckets events by kind and keeps
// every incident. Sinks run synchronously on the trigger hot path, so a
// real one should be this cheap (or buffer) and must never call back
// into the engine.
type memSink struct {
	mu        sync.Mutex
	events    map[string]int
	incidents []cbreak.Incident
}

func newMemSink() *memSink { return &memSink{events: make(map[string]int)} }

func (s *memSink) RecordEvent(ev cbreak.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events[ev.Kind.String()]++
}

func (s *memSink) RecordIncident(in cbreak.Incident) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.incidents = append(s.incidents, in)
}

func (s *memSink) report() {
	s.mu.Lock()
	defer s.mu.Unlock()
	kinds := make([]string, 0, len(s.events))
	for k := range s.events {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("sink events: %s=%d\n", k, s.events[k])
	}
	for _, in := range s.incidents {
		fmt.Printf("sink incident: kind=%s breakpoint=%s\n", in.Kind, in.Breakpoint)
	}
}

func rendezvous(name string, obj *int) (first, second bool) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		second = cbreak.TriggerHere(cbreak.NewConflictTrigger(name, obj), false, 5*time.Second)
	}()
	time.Sleep(50 * time.Millisecond) // let the second side postpone first
	first = cbreak.TriggerHere(cbreak.NewConflictTrigger(name, obj), true, 5*time.Second)
	wg.Wait()
	return first, second
}

func main() {
	var obj int

	// --- Teeing events -----------------------------------------------------
	// With a sink attached, one rendezvous produces a fixed event shape:
	// both sides arrive, the early side postpones, the pair hits.
	section("event tee")
	sink := newMemSink()
	cbreak.SetDurableSink(sink)
	firstHit, secondHit := rendezvous("durable.pair", &obj)
	fmt.Printf("rendezvous hit: first=%v second=%v\n", firstHit, secondHit)

	// --- Teeing incidents --------------------------------------------------
	// An injected predicate panic is absorbed by the guard layer and the
	// incident is teed to the sink alongside the in-memory log.
	section("incident tee")
	plan := cbreak.NewFaultPlan().PanicGlobal("durable.panic", cbreak.FirstSide, 1)
	cbreak.SetFaultInjector(plan)
	rendezvous("durable.panic", &obj)
	cbreak.SetFaultInjector(nil)
	fmt.Printf("in-memory panic incidents: %d\n", cbreak.IncidentCount(cbreak.KindPanic))
	sink.report()

	// --- Detaching ---------------------------------------------------------
	// SetDurableSink(nil) removes the tee: later traffic still updates the
	// engine's in-memory stats but the sink's counts stay frozen.
	section("detach")
	cbreak.SetDurableSink(nil)
	before := func() int {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		total := 0
		for _, n := range sink.events {
			total += n
		}
		return total
	}()
	rendezvous("durable.after", &obj)
	after := func() int {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		total := 0
		for _, n := range sink.events {
			total += n
		}
		return total
	}()
	fmt.Printf("sink frozen after detach: %v\n", before == after)
	for _, st := range cbreak.SnapshotStats() {
		if st.Name == "durable.after" {
			fmt.Printf("engine still counting: arrivals=%d hits=%d\n", st.Arrivals, st.Hits)
		}
	}
	cbreak.Reset()
	fmt.Println("done")
}
