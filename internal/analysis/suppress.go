package analysis

import (
	"go/ast"
	"go/token"
	"os"
	"strconv"
	"strings"

	"cbreak/internal/analysis/load"
)

// The suppression directive is
//
//	//cbvet:ignore <analyzer>[,<analyzer>...] <reason>
//
// with "all" accepted as an analyzer name. A trailing directive silences
// matching diagnostics on its own line; a directive alone on a line
// silences the line below it (so multi-line statements can be annotated
// above). The reason is mandatory: a suppression that does not say why
// it exists is itself reported as a finding, as is one naming an unknown
// analyzer — a typo in a directive would otherwise silently suppress
// nothing.
const directivePrefix = "//cbvet:ignore"

type suppressions struct {
	known map[string]bool
	// byLine maps file -> line -> set of suppressed analyzer names
	// ("all" suppresses everything).
	byLine    map[string]map[int]map[string]bool
	malformed []Finding
	// srcLines caches file contents for standalone-vs-trailing
	// directive classification.
	srcLines map[string][]string
}

func newSuppressions(known map[string]bool) *suppressions {
	return &suppressions{
		known:    known,
		byLine:   make(map[string]map[int]map[string]bool),
		srcLines: make(map[string][]string),
	}
}

func (s *suppressions) scanUnit(u *load.Unit) {
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				s.scanComment(u.Fset, c)
			}
		}
	}
}

func (s *suppressions) scanComment(fset *token.FileSet, c *ast.Comment) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return
	}
	pos := fset.Position(c.Pos())
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		s.malformed = append(s.malformed, Finding{
			Analyzer: "cbvet", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: "malformed //cbvet:ignore: want \"//cbvet:ignore <analyzer> <reason>\" (reason is mandatory)",
		})
		return
	}
	names := strings.Split(fields[0], ",")
	for _, n := range names {
		if n != "all" && !s.known[n] {
			s.malformed = append(s.malformed, Finding{
				Analyzer: "cbvet", File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: "//cbvet:ignore names unknown analyzer " + strconv.Quote(n),
			})
			return
		}
	}
	line := pos.Line
	if s.standalone(pos) {
		line++
	}
	m := s.byLine[pos.Filename]
	if m == nil {
		m = make(map[int]map[string]bool)
		s.byLine[pos.Filename] = m
	}
	set := m[line]
	if set == nil {
		set = make(map[string]bool)
		m[line] = set
	}
	for _, n := range names {
		set[n] = true
	}
}

// standalone reports whether the directive is the first token on its
// source line (only whitespace before it), in which case it covers the
// following line instead of its own.
func (s *suppressions) standalone(pos token.Position) bool {
	lines, ok := s.srcLines[pos.Filename]
	if !ok {
		data, err := os.ReadFile(pos.Filename)
		if err != nil {
			lines = nil
		} else {
			lines = strings.Split(string(data), "\n")
		}
		s.srcLines[pos.Filename] = lines
	}
	if pos.Line-1 < 0 || pos.Line-1 >= len(lines) {
		return pos.Column == 1
	}
	before := lines[pos.Line-1]
	if pos.Column-1 <= len(before) {
		before = before[:pos.Column-1]
	}
	return strings.TrimSpace(before) == ""
}

func (s *suppressions) covers(file string, line int, analyzer string) bool {
	set := s.byLine[file][line]
	return set != nil && (set["all"] || set[analyzer])
}
