package lockorder_test

import (
	"slices"
	"testing"

	"cbreak/internal/analysis"
	"cbreak/internal/analysis/cbvettest"
	"cbreak/internal/analysis/load"
	"cbreak/internal/analysis/lockorder"
)

func TestFixtures(t *testing.T) {
	res := cbvettest.Run(t, lockorder.Analyzer, "testdata/a")
	if n := len(res.Suppressed); n != 2 {
		t.Errorf("suppressed findings = %d, want 2 (both edges of the annotated cycle)", n)
	}
}

// A finding reads the same whether its package loads alone or after
// another one: a local lock's name does not move with the file set.
func TestMessagesDoNotDependOnLoadOrder(t *testing.T) {
	messages := func(before ...string) []string {
		l, err := load.New("testdata/a")
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range before {
			if _, err := l.LoadDir(dir); err != nil {
				t.Fatal(err)
			}
		}
		units, err := l.LoadDir("testdata/a")
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&analysis.Runner{Analyzers: []*analysis.Analyzer{lockorder.Analyzer}}).Run(units)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, f := range res.Findings {
			out = append(out, f.Message)
		}
		return out
	}
	alone := messages()
	after := messages("../conflicts/testdata/a")
	if len(alone) == 0 {
		t.Fatal("the fixture reports nothing")
	}
	if !slices.Equal(alone, after) {
		t.Errorf("loaded alone:\n%v\nloaded after another package:\n%v", alone, after)
	}
}
