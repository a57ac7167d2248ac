// Package conflicts flags shared memory cells accessed under
// inconsistent locksets: some site holds a lock around the cell, some
// other site reaches it with no common lock, and at least one access
// writes. These are exactly the pairs the dynamic predictor
// (internal/predict) manufactures breakpoints for, found statically —
// the Eraser discipline applied at vet time over the same
// interprocedural walk the lockorder analyzer uses. A bridge test pins
// the two ends together: the static candidate on the mysql LSN cell
// names the same cell the recorded-trace predictor reports.
//
// The analysis is context-insensitive in the usual summary way: a
// helper that accesses a cell contributes one instance per calling
// context with the caller's locks added, plus its own as-written
// instance. A helper whose every caller locks therefore still shows a
// lock-free instance; suppress such findings with
//
//	//cbvet:ignore conflicts <why the discipline holds anyway>
package conflicts

import (
	"go/token"
	"sort"
	"strings"

	"cbreak/internal/analysis"
	"cbreak/internal/analysis/lockorder"
)

// Analyzer reports cells with inconsistent locksets.
var Analyzer = &analysis.Analyzer{
	Name: "conflicts",
	Doc: "shared cells accessed under inconsistent locksets: a write reaches the cell " +
		"without the lock other sites hold, so a schedule exists in which the accesses race; " +
		"candidates line up with internal/predict's dynamically predicted pairs",
	Run: func(pass *analysis.Pass) error {
		pass.State.(*lockorder.Summary).Collect(pass.Unit)
		return nil
	},
	NewState: func() any { return lockorder.NewSummary() },
	Finish:   finish,
}

// Candidate is one flagged cell: the access instances, the locks seen
// across them (no lock is common to all), and the anchor position the
// diagnostic reports at.
type Candidate struct {
	// Cell is the cell's class name ("mysql.lsn").
	Cell string
	// Pos anchors the finding: the first lock-free write when one
	// exists, then the first lock-free access, then the first write.
	Pos token.Pos
	// AnchorLocks are the locks held at the anchor access (often none).
	AnchorLocks []string
	// OtherLocks is the union of locks held at the remaining accesses.
	OtherLocks []string
	// Accesses are all of the cell's instances, position-ordered.
	Accesses []lockorder.CellAccess
}

// candidates groups access instances by cell and applies the lockset
// condition: intersection of held locks empty, at least one access
// locked, at least one write.
func candidates(accs []lockorder.CellAccess) []Candidate {
	byCell := map[string][]lockorder.CellAccess{}
	var cells []string
	for _, a := range accs {
		if _, ok := byCell[a.Cell]; !ok {
			cells = append(cells, a.Cell)
		}
		byCell[a.Cell] = append(byCell[a.Cell], a)
	}
	sort.Strings(cells)

	var out []Candidate
	for _, cell := range cells {
		group := byCell[cell]
		var (
			inter     map[string]bool
			anyLocked bool
			anyWrite  bool
		)
		for i, a := range group {
			if len(a.Locks) > 0 {
				anyLocked = true
			}
			if a.Write {
				anyWrite = true
			}
			set := map[string]bool{}
			for _, l := range a.Locks {
				set[l] = true
			}
			if i == 0 {
				inter = set
				continue
			}
			for l := range inter {
				if !set[l] {
					delete(inter, l)
				}
			}
		}
		if len(inter) > 0 || !anyLocked || !anyWrite {
			continue
		}
		anchor := pickAnchor(group)
		other := map[string]bool{}
		for _, a := range group {
			if a.Pos == anchor.Pos && a.Write == anchor.Write {
				continue
			}
			for _, l := range a.Locks {
				other[l] = true
			}
		}
		out = append(out, Candidate{
			Cell:        cell,
			Pos:         anchor.Pos,
			AnchorLocks: anchor.Locks,
			OtherLocks:  sortedKeys(other),
			Accesses:    group,
		})
	}
	return out
}

// pickAnchor selects the instance the diagnostic points at: the first
// lock-free write, else the first lock-free access, else the first
// write, else the first access.
func pickAnchor(group []lockorder.CellAccess) lockorder.CellAccess {
	best := -1
	rank := func(a lockorder.CellAccess) int {
		switch {
		case len(a.Locks) == 0 && a.Write:
			return 0
		case len(a.Locks) == 0:
			return 1
		case a.Write:
			return 2
		}
		return 3
	}
	for i := range group {
		if best < 0 || rank(group[i]) < rank(group[best]) ||
			(rank(group[i]) == rank(group[best]) && group[i].Pos < group[best].Pos) {
			best = i
		}
	}
	return group[best]
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func finish(f *analysis.Finish) error {
	for _, c := range candidates(f.State.(*lockorder.Summary).CellAccesses()) {
		here := "no lock"
		if len(c.AnchorLocks) > 0 {
			here = "only " + strings.Join(c.AnchorLocks, ", ")
		}
		f.Reportf(c.Pos,
			"inconsistent locking of cell %s: this access holds %s while other sites hold %s; "+
				"no common lock protects the cell, so a schedule exists in which the accesses race "+
				"(verify with cbpredict)",
			c.Cell, here, strings.Join(c.OtherLocks, ", "))
	}
	return nil
}
