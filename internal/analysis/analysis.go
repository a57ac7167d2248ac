// Package analysis is a self-contained analogue of the
// golang.org/x/tools/go/analysis framework: named analyzers that walk
// type-checked syntax and report positioned diagnostics, a runner that
// drives them over loaded packages, //cbvet:ignore suppressions, and a
// JSON findings artifact. It exists because this repository builds in a
// hermetic environment where x/tools is unavailable; the API mirrors the
// real framework closely enough that the analyzers would port with
// little more than an import change.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"

	"cbreak/internal/analysis/load"
)

// Analyzer is one static check. Run is invoked once per package unit;
// the optional NewState/Finish pair supports program-level analyses
// (breakpoint-key pairing, the cross-package lock-order graph) that need
// to see every unit before reporting.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //cbvet:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description shown by cbvet -list.
	Doc string
	// Run analyzes one unit, reporting diagnostics through the pass.
	Run func(*Pass) error
	// NewState, if non-nil, is called once per runner invocation; the
	// value is shared by every Pass of this analyzer via Pass.State.
	NewState func() any
	// Finish, if non-nil, runs after every unit's Run with the shared
	// state, for diagnostics that need the whole program.
	Finish func(*Finish) error
}

// Pass carries one unit through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Unit     *load.Unit
	// State is the analyzer's shared state (nil unless NewState is set).
	State any

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finish is the context handed to an analyzer's Finish hook.
type Finish struct {
	Analyzer *Analyzer
	State    any
	// Fset positions every diagnostic reported from any unit.
	Fset *token.FileSet
	// Partial reports that the runner saw only a slice of the program
	// (one compilation unit under go vet -vettool). Whole-program
	// diagnostics such as "this key has no partner anywhere" must be
	// skipped when Partial is true.
	Partial bool

	report func(Diagnostic)
}

// Reportf records a program-level diagnostic at pos.
func (f *Finish) Reportf(pos token.Pos, format string, args ...any) {
	f.report(Diagnostic{Analyzer: f.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned in the runner's file set.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Runner drives a set of analyzers over loaded units and applies
// suppression directives.
type Runner struct {
	Analyzers []*Analyzer
	// Known lists analyzer names valid in //cbvet:ignore directives
	// beyond the ones being run, so `cbvet -run timerleak` over a file
	// with a legitimate lockorder suppression does not report that
	// directive as a typo.
	Known []string
	// Partial marks single-unit invocations (the vettool protocol);
	// see Finish.Partial.
	Partial bool
}

// Result is one Run's outcome.
type Result struct {
	// Findings are the surviving diagnostics, sorted by position.
	Findings []Finding
	// Suppressed are the diagnostics silenced by //cbvet:ignore
	// directives, in the same order; kept so bridge tests and audits
	// can see intentional sites.
	Suppressed []Finding
	// BadDirectives are malformed //cbvet:ignore comments (missing
	// reason, unknown analyzer); they surface as findings too.
	BadDirectives []Finding
}

// Run executes every analyzer over every unit, then the Finish hooks,
// then suppression filtering. Analyzer errors (not diagnostics) abort
// the run.
func (r *Runner) Run(units []*load.Unit) (*Result, error) {
	if len(units) == 0 {
		return &Result{}, nil
	}
	fset := units[0].Fset
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }

	known := make(map[string]bool, len(r.Analyzers)+len(r.Known))
	for _, a := range r.Analyzers {
		known[a.Name] = true
	}
	for _, n := range r.Known {
		known[n] = true
	}

	sup := newSuppressions(known)
	for _, u := range units {
		sup.scanUnit(u)
	}

	for _, a := range r.Analyzers {
		var state any
		if a.NewState != nil {
			state = a.NewState()
		}
		for _, u := range units {
			pass := &Pass{Analyzer: a, Unit: u, State: state, report: report}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, u.Path, err)
			}
		}
		if a.Finish != nil {
			fin := &Finish{Analyzer: a, State: state, Fset: fset, Partial: r.Partial, report: report}
			if err := a.Finish(fin); err != nil {
				return nil, fmt.Errorf("%s: finish: %w", a.Name, err)
			}
		}
	}

	res := &Result{}
	for _, d := range diags {
		f := toFinding(fset, d)
		if sup.covers(f.File, f.Line, d.Analyzer) {
			res.Suppressed = append(res.Suppressed, f)
		} else {
			res.Findings = append(res.Findings, f)
		}
	}
	res.BadDirectives = sup.malformed
	res.Findings = append(res.Findings, sup.malformed...)
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	return res, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Inspect walks every file of the pass's unit in depth-first order,
// calling fn for each node; fn returning false prunes the subtree.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Unit.Files {
		ast.Inspect(f, fn)
	}
}
