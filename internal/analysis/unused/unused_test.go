package unused_test

import (
	"testing"

	"cbreak/internal/analysis"
	"cbreak/internal/analysis/cbvettest"
	"cbreak/internal/analysis/load"
	"cbreak/internal/analysis/unused"
)

// The fixture module covers a dead exported chain, declarations reached
// only from another package's test or only from a package main, the
// interface methods of reached types and a suppression.
func TestFixtures(t *testing.T) {
	res := cbvettest.Run(t, unused.Analyzer, "testdata/src")
	if n := len(res.Suppressed); n != 1 {
		t.Errorf("suppressed findings = %d, want 1 (the //cbvet:ignore site)", n)
	}
}

// Reachability needs every package of the module: a run over part of
// it, or in go vet's per-package mode, reports nothing.
func TestQuietOnPartOfTheModule(t *testing.T) {
	loader, err := load.New("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	whole, err := loader.Load("testdata/src", "./...")
	if err != nil {
		t.Fatal(err)
	}
	part, err := loader.Load("testdata/src", ".", "lib")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		units   []*load.Unit
		partial bool
	}{
		{"narrower pattern", part, false},
		{"vet-tool mode", whole, true},
	} {
		r := &analysis.Runner{Analyzers: []*analysis.Analyzer{unused.Analyzer}, Partial: tc.partial}
		res, err := r.Run(tc.units)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Findings) != 0 {
			t.Errorf("%s: findings = %v, want none", tc.name, res.Findings)
		}
	}
}
