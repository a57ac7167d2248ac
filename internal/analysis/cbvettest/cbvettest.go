// Package cbvettest is the fixture harness for the cbvet analyzers,
// modeled on golang.org/x/tools/go/analysis/analysistest: a fixture is
// a directory under testdata/ holding one or more packages (a go.mod
// makes it a module of its own) whose lines carry
//
//	// want "substring"
//
// expectations. The runner loads the fixture (through the same loader
// the real tool uses, so fixtures may import cbreak packages), runs the
// analyzer with suppressions applied, and diffs reported findings
// against the expectations line by line. A fixture line with a
// //cbvet:ignore directive and no want comment therefore doubles as the
// suppression test: if filtering breaks, the finding surfaces as
// unexpected.
package cbvettest

import (
	"strings"
	"testing"

	"cbreak/internal/analysis"
	"cbreak/internal/analysis/load"
)

// want is one expectation: a substring that must appear in a finding's
// message on a given file line.
type want struct {
	file string
	line int
	sub  string
	hit  bool
}

// Run loads the fixture packages in dir and below it and checks
// analyzer a against their // want comments. It returns the result for
// extra assertions.
func Run(t *testing.T, a *analysis.Analyzer, dir string) *analysis.Result {
	t.Helper()
	loader, err := load.New(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	units, err := loader.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(units) == 0 {
		t.Fatalf("fixture %s holds no Go package", dir)
	}
	for _, u := range units {
		for _, e := range u.TypeErrors {
			t.Errorf("fixture type error: %v", e)
		}
	}

	runner := &analysis.Runner{Analyzers: []*analysis.Analyzer{a}}
	res, err := runner.Run(units)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, units)
	for _, f := range res.Findings {
		if !match(wants, f) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding containing %q, got none", w.file, w.line, w.sub)
		}
	}
	return res
}

func match(wants []*want, f analysis.Finding) bool {
	for _, w := range wants {
		if !w.hit && w.file == f.File && w.line == f.Line && strings.Contains(f.Message, w.sub) {
			w.hit = true
			return true
		}
	}
	return false
}

// collectWants scans fixture comments for // want "..." expectations
// (several per line allowed).
func collectWants(t *testing.T, units []*load.Unit) []*want {
	t.Helper()
	var out []*want
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := c.Text
					idx := strings.Index(text, "// want ")
					if idx < 0 {
						if idx = strings.Index(text, "//want "); idx < 0 {
							continue
						}
					}
					pos := u.Fset.Position(c.Pos())
					rest := text[idx:]
					rest = rest[strings.Index(rest, "want ")+len("want "):]
					subs, err := splitQuoted(rest)
					if err != nil {
						t.Fatalf("%s:%d: malformed want comment %q: %v", pos.Filename, pos.Line, text, err)
					}
					for _, s := range subs {
						out = append(out, &want{file: pos.Filename, line: pos.Line, sub: s})
					}
				}
			}
		}
	}
	return out
}

// splitQuoted parses a sequence of double-quoted Go strings.
func splitQuoted(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			break
		}
		end := 1
		for end < len(s) && s[end] != '"' {
			if s[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(s) {
			return nil, errUnterminated
		}
		out = append(out, strings.ReplaceAll(s[1:end], `\"`, `"`))
		s = strings.TrimSpace(s[end+1:])
	}
	return out, nil
}

type strErr string

func (e strErr) Error() string { return string(e) }

const errUnterminated = strErr("unterminated quoted string")
