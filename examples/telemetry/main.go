// Command telemetry demonstrates the typed telemetry core through the
// public cbreak facade: engine events and guard incidents, wait-graph
// findings among them, fan out through one record bus
// (cbreak.Telemetry), and one declared metric catalog renders the
// same state as Prometheus text (cbreak.NewMetricRegistry +
// cbreak.RegisterMetrics). Per-breakpoint runtime disable
// (cbreak.SetBreakpointEnabled) shows the live-control half: the same
// switch cmd/cbserverd flips over HTTP. Output is deterministic —
// counters and sorted names, no raw durations — so two runs diff
// clean.
package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"cbreak"
)

func section(name string) { fmt.Printf("== %s ==\n", name) }

// rendezvous drives one two-sided hit on name.
func rendezvous(name string) bool {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cbreak.TriggerHere(cbreak.NewPredTrigger(name, nil, nil, nil), true, 2*time.Second)
	}()
	ok := cbreak.TriggerHere(cbreak.NewPredTrigger(name, nil, nil, nil), false, 2*time.Second)
	wg.Wait()
	return ok
}

func main() {
	cbreak.Reset()

	// One bounded subscription sees every record kind; a subscriber
	// that falls behind loses records (counted), never stalls the
	// engine.
	sub := cbreak.Telemetry().Subscribe(256)
	defer sub.Cancel()

	section("records on the bus")
	for i := 0; i < 3; i++ {
		if !rendezvous("telemetry.hit") {
			fmt.Println("rendezvous missed")
		}
	}
	// A trigger with no partner times out: a different event kind.
	//cbvet:ignore bpkeys intentional one-sided arrival: the timeout event is the point
	cbreak.TriggerHere(cbreak.NewPredTrigger("telemetry.lonely", nil, nil, nil),
		true, 10*time.Millisecond)

	counts := map[string]int{}
	deadline := time.NewTimer(200 * time.Millisecond)
	defer deadline.Stop()
	for drained := false; !drained; {
		select {
		case rec := <-sub.C():
			counts[rec.Kind.String()]++
		case <-deadline.C:
			drained = true
		}
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("kind %-16s records>=6: %v\n", k, counts[k] >= 6)
	}
	fmt.Printf("bus drops: %d\n", cbreak.Telemetry().Dropped())

	section("live disable (the cbserverd switch)")
	cbreak.SetBreakpointEnabled("telemetry.hit", false)
	fmt.Printf("enabled after disable: %v\n", cbreak.BreakpointEnabled("telemetry.hit"))
	//cbvet:ignore bpkeys intentional one-sided arrival: a disabled breakpoint returns immediately, no partner needed
	hit := cbreak.TriggerHere(cbreak.NewPredTrigger("telemetry.hit", nil, nil, nil),
		true, 10*time.Millisecond)
	fmt.Printf("disabled trigger hit: %v\n", hit)
	cbreak.SetBreakpointEnabled("telemetry.hit", true)
	fmt.Printf("enabled after re-enable: %v\n", cbreak.BreakpointEnabled("telemetry.hit"))

	section("one catalog, rendered as prometheus text")
	reg := cbreak.NewMetricRegistry()
	cbreak.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		fmt.Println("exposition error:", err)
		return
	}
	for _, want := range []string{
		`cbreak_engine_enabled 1`,
		`cbreak_bp_hits_total{breakpoint="telemetry.hit"} 3`,
		`cbreak_bp_enabled{breakpoint="telemetry.hit"} 1`,
		`cbreak_bp_timeouts_total{breakpoint="telemetry.lonely"} 1`,
	} {
		fmt.Printf("exposition has %-52q %v\n", want, strings.Contains(sb.String(), want))
	}

	cbreak.Reset()
}
