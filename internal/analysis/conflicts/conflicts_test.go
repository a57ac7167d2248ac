package conflicts

import (
	"strings"
	"testing"

	"cbreak/internal/analysis"
	"cbreak/internal/analysis/cbvettest"
	"cbreak/internal/analysis/load"
	"cbreak/internal/analysis/lockorder"
)

func TestFixtures(t *testing.T) {
	res := cbvettest.Run(t, Analyzer, "testdata/a")
	if n := len(res.Suppressed); n != 1 {
		t.Errorf("suppressed findings = %d, want 1 (the annotated hush counter)", n)
	}
	if n := len(res.BadDirectives); n != 0 {
		t.Errorf("bad directives = %d, want 0: %v", n, res.BadDirectives)
	}
}

// TestMalformedSuppression pins the directive grammar: an ignore with
// no reason is reported as malformed and silences nothing.
func TestMalformedSuppression(t *testing.T) {
	loader, err := load.New("testdata/malformed")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	units, err := loader.LoadDir("testdata/malformed")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	runner := &analysis.Runner{Analyzers: []*analysis.Analyzer{Analyzer}}
	res, err := runner.Run(units)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := len(res.BadDirectives); n != 1 {
		t.Fatalf("bad directives = %d, want 1: %+v", n, res.BadDirectives)
	}
	if msg := res.BadDirectives[0].Message; !strings.Contains(msg, "malformed //cbvet:ignore") {
		t.Errorf("bad directive message = %q, want the malformed-grammar message", msg)
	}
	if n := len(res.Suppressed); n != 0 {
		t.Errorf("suppressed = %d, want 0 (a malformed directive must not silence findings)", n)
	}
	// The real finding survives alongside the malformed-directive one.
	var conflictFindings int
	for _, f := range res.Findings {
		if f.Analyzer == "conflicts" && strings.Contains(f.Message, "mal.val") {
			conflictFindings++
		}
	}
	if conflictFindings != 1 {
		t.Errorf("conflicts findings on mal.val = %d, want 1:\n%+v", conflictFindings, res.Findings)
	}
}

// unitCandidates runs the collection over already-loaded units and
// returns every flagged cell, ignoring suppressions; the predict bridge
// test compares this list with dynamic predictions.
func unitCandidates(units []*load.Unit) []Candidate {
	s := lockorder.NewSummary()
	for _, u := range units {
		s.Collect(u)
	}
	return candidates(s.CellAccesses())
}

// TestCandidates exercises the candidate list the bridge test builds
// on.
func TestCandidates(t *testing.T) {
	loader, err := load.New("testdata/a")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	units, err := loader.LoadDir("testdata/a")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	cands := unitCandidates(units)
	got := map[string]bool{}
	for _, c := range cands {
		got[c.Cell] = true
	}
	for _, want := range []string{"fix.counter", "fix.depth", "fix.split", "fix.hush"} {
		if !got[want] {
			t.Errorf("candidate for %s missing (got %v)", want, got)
		}
	}
	for _, dontWant := range []string{"fix.steady", "fix.free"} {
		if got[dontWant] {
			t.Errorf("unexpected candidate for %s", dontWant)
		}
	}
}
