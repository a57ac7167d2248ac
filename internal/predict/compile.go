package predict

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"cbreak/internal/core"
	"cbreak/internal/memory"
)

// TriggerPlan is one compiled concurrent breakpoint: the JSON config a
// predicted race pair turns into. Arming a plan (Armer) pauses the
// first goroutine that reaches one of the sites until the other side
// arrives at the partner site — manufacturing the predicted conflict
// state on demand, exactly as a hand-written ConflictTrigger would.
type TriggerPlan struct {
	// Breakpoint is the engine breakpoint name ("predict.race.<cell>").
	Breakpoint string `json:"breakpoint"`
	// Var is the shared cell whose accesses rendezvous.
	Var string `json:"var"`
	// Site1/Site2 are the two access sites. Site1 is the first-action
	// side (it executes its access first once both sides have met).
	Site1 string `json:"site1"`
	Site2 string `json:"site2"`
	// TimeoutMS is the postponement timeout (the paper's T).
	TimeoutMS int64 `json:"timeout_ms"`
	// Bound caps how many times the breakpoint fires per run.
	Bound int `json:"bound"`
	// Observed records whether the pair already raced in the recorded
	// interleaving (false = predicted-only, the interesting case).
	Observed bool `json:"observed"`
}

// Timeout returns the plan's postponement timeout.
func (p TriggerPlan) Timeout() time.Duration { return time.Duration(p.TimeoutMS) * time.Millisecond }

// planName builds a breakpoint name from a cell name, keeping the
// usual dotted-key shape.
func planName(cell string, n int) string {
	s := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, cell)
	name := "predict.race." + s
	if n > 0 {
		name = fmt.Sprintf("%s.%d", name, n)
	}
	return name
}

// Compile turns predictions into trigger plans. Plans keep the
// prediction order; pairs over the same cell get numbered breakpoint
// names.
func Compile(preds []Prediction, timeout time.Duration) []TriggerPlan {
	perCell := map[string]int{}
	out := make([]TriggerPlan, 0, len(preds))
	for _, p := range preds {
		n := perCell[p.Var]
		perCell[p.Var]++
		out = append(out, TriggerPlan{
			Breakpoint: planName(p.Var, n),
			Var:        p.Var,
			Site1:      p.Site1,
			Site2:      p.Site2,
			TimeoutMS:  timeout.Milliseconds(),
			Bound:      1,
			Observed:   p.Observed,
		})
	}
	return out
}

// WritePlans stores plans as an indented JSON config file.
func WritePlans(path string, plans []TriggerPlan) error {
	data, err := json.MarshalIndent(plans, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// armedPlan is one plan resolved against an engine.
type armedPlan struct {
	plan TriggerPlan
	bp   *core.Breakpoint
	// flip alternates the first/second side when both sites carry the
	// same label (a line racing with itself across goroutines).
	flip atomic.Int64
}

// Armer implements memory.Tracer: attached to a workload's memory
// space, it fires the plans' ConflictTriggers when execution reaches
// the planned sites. Both sides pass the same *memory.Cell as the
// trigger object, so PredicateGlobal's identity check holds exactly
// when the two goroutines are about to touch the same cell.
type Armer struct {
	eng   *core.Engine
	byVar map[string][]*armedPlan
}

// NewArmer resolves plans against an engine.
func NewArmer(e *core.Engine, plans []TriggerPlan) *Armer {
	a := &Armer{eng: e, byVar: map[string][]*armedPlan{}}
	for _, p := range plans {
		a.byVar[p.Var] = append(a.byVar[p.Var], &armedPlan{plan: p, bp: e.Breakpoint(p.Breakpoint)})
	}
	return a
}

// OnAccess implements memory.Tracer: a site match triggers the plan's
// breakpoint before the access executes.
func (a *Armer) OnAccess(gid uint64, c *memory.Cell, op memory.Op, site string) {
	for _, ap := range a.byVar[c.Name()] {
		var first bool
		switch {
		case ap.plan.Site1 == ap.plan.Site2:
			if site != ap.plan.Site1 {
				continue
			}
			first = ap.flip.Add(1)%2 == 1
		case site == ap.plan.Site1:
			first = true
		case site == ap.plan.Site2:
			first = false
		default:
			continue
		}
		ap.bp.Trigger(core.NewConflictTrigger(ap.plan.Breakpoint, c), first,
			core.Options{Timeout: ap.plan.Timeout(), Bound: ap.plan.Bound})
	}
}

// Fired returns per-plan hit counts from the engine's statistics.
func (a *Armer) Fired() map[string]int64 {
	out := map[string]int64{}
	for _, aps := range a.byVar {
		for _, ap := range aps {
			out[ap.plan.Breakpoint] = a.eng.Stats(ap.plan.Breakpoint).Hits()
		}
	}
	return out
}

// TotalHits sums Fired over every plan.
func (a *Armer) TotalHits() int64 {
	var n int64
	for _, hits := range a.Fired() {
		n += hits
	}
	return n
}
