package predict

import (
	"fmt"
	"sort"
	"strings"

	"cbreak/internal/vclock"
)

// Prediction is one predicted racy pair: two accesses to the same cell,
// at least one a write, by different goroutines, holding disjoint
// locksets, unordered under the sync-aware closure (weakHB below).
type Prediction struct {
	// Var is the shared cell's name.
	Var string `json:"var"`
	// Site1/Site2 are the two access sites, sorted (Site1 <= Site2).
	Site1 string `json:"site1"`
	Site2 string `json:"site2"`
	// Gid1/Gid2 are the accessing goroutines, aligned with the sites.
	Gid1 uint64 `json:"gid1"`
	Gid2 uint64 `json:"gid2"`
	// Write1/Write2 say which sides are writes.
	Write1 bool `json:"write1"`
	Write2 bool `json:"write2"`
	// Locks1/Locks2 are the locks held at each access (sorted).
	Locks1 []string `json:"locks1,omitempty"`
	Locks2 []string `json:"locks2,omitempty"`
	// Observed marks pairs the full observed happens-before relation
	// ALSO leaves unordered — races present in the recorded
	// interleaving itself. Predicted-only races have Observed=false:
	// the recorded run ordered them, but only through scheduling-luck
	// lock orderings a reordering can undo.
	Observed bool `json:"observed"`
}

// Key is a canonical identity for deduplication across traces.
func (p Prediction) Key() string {
	return fmt.Sprintf("%s|%s|%s", p.Var, p.Site1, p.Site2)
}

// String renders the prediction in the detect.Report shape.
func (p Prediction) String() string {
	tag := "predicted"
	if p.Observed {
		tag = "observed"
	}
	return fmt.Sprintf("%s race on %s between %s (g%d, locks %v) and %s (g%d, locks %v)",
		tag, p.Var, p.Site1, p.Gid1, p.Locks1, p.Site2, p.Gid2, p.Locks2)
}

// maxAccessesPerVar bounds the per-cell access lists the predictor
// keeps. Recorded workloads are short by design (cmd/cbpredict records
// bounded scenarios); the cap only guards against a runaway trace, and
// Result.Truncated reports when it bites so coverage loss is never
// silent.
const maxAccessesPerVar = 4096

// Result is one prediction run's outcome.
type Result struct {
	// Predictions holds every racy pair, observed and predicted-only,
	// deterministically ordered.
	Predictions []Prediction
	// Truncated names cells whose access lists hit maxAccessesPerVar.
	Truncated []string
}

// PredictedOnly returns the predictions absent from the observed
// interleaving — the pairs worth manufacturing breakpoints for.
func (r *Result) PredictedOnly() []Prediction {
	var out []Prediction
	for _, p := range r.Predictions {
		if !p.Observed {
			out = append(out, p)
		}
	}
	return out
}

// criticalSection is one acquire..release span of a lock on one
// goroutine, with the set of cells accessed inside it.
type criticalSection struct {
	lock   string
	vars   map[string]bool // cell -> accessed
	writes map[string]bool // cell -> written
}

func (cs *criticalSection) conflicts(o *criticalSection) bool {
	for v := range cs.vars {
		if o.vars[v] && (cs.writes[v] || o.writes[v]) {
			return true
		}
	}
	return false
}

// access is one replayed cell access with its two clocks.
type access struct {
	gid   uint64
	write bool
	site  string
	locks []string
	// weak is the access's clock under the prediction closure; obs is
	// its clock under the full observed happens-before order (taken
	// from the recorded event).
	weak vclock.VC
	obs  vclock.VC
}

// orderedBy reports whether a happens-before b under clocks selected by
// pick (epoch check: a's own component is included in b's frontier).
func orderedBy(a, b *access, pick func(*access) vclock.VC) bool {
	return pick(a).Get(a.gid) <= pick(b).Get(a.gid)
}

// Predict replays the trace and returns every conflicting pair that is
// unordered under the sync-aware closure:
//
//	weakHB = program order
//	       ∪ fork/join edges
//	       ∪ release→acquire edges between CONFLICTING critical
//	         sections only
//
// Dropping release→acquire edges between critical sections that share
// no data is the standard tractable weakening of sync-preserving race
// prediction (cf. WCP): if two critical sections of one lock touch
// disjoint cells, their observed order is scheduling luck — a correct
// reordering may run them the other way, so orderings that flow only
// through them cannot be relied on to separate a conflicting pair.
// Pairs that are unordered even under the FULL observed
// happens-before relation are marked Observed (FastTrack would report
// them); the rest are predicted-only.
func Predict(tr *Trace) *Result {
	// Pass 1: delimit critical sections and collect their footprints,
	// so pass 2 can decide which release→acquire edges to keep.
	open := map[uint64][]*criticalSection{} // per-gid stack of open sections
	csAt := make(map[int]*criticalSection)  // event index -> its acquire/release section
	for i, ev := range tr.Events {
		switch ev.Kind {
		case EvAcquire:
			cs := &criticalSection{lock: ev.Obj, vars: map[string]bool{}, writes: map[string]bool{}}
			open[ev.Gid] = append(open[ev.Gid], cs)
			csAt[i] = cs
		case EvRelease:
			stack := open[ev.Gid]
			for j := len(stack) - 1; j >= 0; j-- {
				if stack[j].lock == ev.Obj {
					csAt[i] = stack[j]
					open[ev.Gid] = append(stack[:j], stack[j+1:]...)
					break
				}
			}
		case EvRead, EvWrite:
			for _, cs := range open[ev.Gid] {
				cs.vars[ev.Obj] = true
				if ev.Kind == EvWrite {
					cs.writes[ev.Obj] = true
				}
			}
		}
	}

	// Pass 2: recompute clocks under the closure, collecting accesses.
	type release struct {
		clock vclock.VC
		cs    *criticalSection
	}
	clocks := map[uint64]vclock.VC{}
	forked := map[uint64]vclock.VC{}
	releases := map[string][]release{} // lock -> prior releases
	held := map[uint64][]string{}      // per-gid held lock names
	accesses := map[string][]*access{} // cell -> accesses
	truncated := map[string]bool{}

	clock := func(gid uint64) vclock.VC {
		c, ok := clocks[gid]
		if !ok {
			if f, isForked := forked[gid]; isForked {
				c = f.Clone()
				delete(forked, gid)
			} else {
				c = vclock.New()
			}
			clocks[gid] = c
		}
		return c
	}

	for i, ev := range tr.Events {
		c := clock(ev.Gid)
		switch ev.Kind {
		case EvAcquire:
			cs := csAt[i]
			for _, rel := range releases[ev.Obj] {
				if cs != nil && rel.cs != nil && rel.cs.conflicts(cs) {
					c.Join(rel.clock)
				}
			}
			c.Tick(ev.Gid)
			held[ev.Gid] = append(held[ev.Gid], ev.Obj)
		case EvRelease:
			c.Tick(ev.Gid)
			releases[ev.Obj] = append(releases[ev.Obj], release{clock: c.Clone(), cs: csAt[i]})
			hs := held[ev.Gid]
			for j := len(hs) - 1; j >= 0; j-- {
				if hs[j] == ev.Obj {
					held[ev.Gid] = append(hs[:j], hs[j+1:]...)
					break
				}
			}
		case EvFork:
			c.Tick(ev.Gid)
			forked[ev.Child] = c.Clone()
		case EvJoin:
			if child, ok := clocks[ev.Child]; ok {
				c.Join(child)
			}
			c.Tick(ev.Gid)
		case EvRead, EvWrite:
			c.Tick(ev.Gid)
			if len(accesses[ev.Obj]) >= maxAccessesPerVar {
				truncated[ev.Obj] = true
				continue
			}
			locks := append([]string(nil), held[ev.Gid]...)
			sort.Strings(locks)
			accesses[ev.Obj] = append(accesses[ev.Obj], &access{
				gid:   ev.Gid,
				write: ev.Kind == EvWrite,
				site:  ev.Site,
				locks: locks,
				weak:  c.Clone(),
				obs:   ev.Clock,
			})
		}
	}

	// Pairwise race check per cell.
	seen := map[string]*Prediction{}
	var order []string
	for cell, accs := range accesses {
		for i, a := range accs {
			for _, b := range accs[i+1:] {
				if a.gid == b.gid || (!a.write && !b.write) {
					continue
				}
				if shareLock(a.locks, b.locks) {
					continue
				}
				if orderedBy(a, b, weakClock) || orderedBy(b, a, weakClock) {
					continue
				}
				observed := !orderedBy(a, b, obsClock) && !orderedBy(b, a, obsClock)
				p := makePrediction(cell, a, b, observed)
				k := p.Key()
				if prev, dup := seen[k]; dup {
					// An observed occurrence of the pair outranks a
					// predicted-only one.
					prev.Observed = prev.Observed || p.Observed
					continue
				}
				seen[k] = &p
				order = append(order, k)
			}
		}
	}
	sort.Strings(order)
	res := &Result{}
	for _, k := range order {
		res.Predictions = append(res.Predictions, *seen[k])
	}
	for cell := range truncated {
		res.Truncated = append(res.Truncated, cell)
	}
	sort.Strings(res.Truncated)
	return res
}

func weakClock(a *access) vclock.VC { return a.weak }
func obsClock(a *access) vclock.VC  { return a.obs }

func shareLock(a, b []string) bool {
	for _, l := range a {
		for _, m := range b {
			if l == m {
				return true
			}
		}
	}
	return false
}

func makePrediction(cell string, a, b *access, observed bool) Prediction {
	// Normalize side order by site, then gid, for deterministic keys.
	if a.site > b.site || (a.site == b.site && a.gid > b.gid) {
		a, b = b, a
	}
	return Prediction{
		Var:      cell,
		Site1:    a.site,
		Site2:    b.site,
		Gid1:     a.gid,
		Gid2:     b.gid,
		Write1:   a.write,
		Write2:   b.write,
		Locks1:   a.locks,
		Locks2:   b.locks,
		Observed: observed,
	}
}

// FormatAll renders predictions one per line.
func FormatAll(preds []Prediction) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, "\n")
}
