// Package rawsync flags direct sync.Mutex / sync.RWMutex use in the
// benchmark application packages (internal/apps/...). Raw locks are
// invisible to the internal/locks registry: they produce no wait edges,
// so the runtime wait-graph supervisor (PR 4) cannot see cycles through
// them, lock-class predicates cannot match them, and the detect package
// cannot report their contention. Application code must use the
// internal/locks wrappers; infrastructure packages (the engine, the
// locks package itself) are out of scope.
package rawsync

import (
	"go/ast"
	"go/types"
	"strings"

	"cbreak/internal/analysis"
)

// Analyzer flags sync.Mutex/sync.RWMutex in packages with an "apps"
// path element.
var Analyzer = &analysis.Analyzer{
	Name: "rawsync",
	Doc: "raw sync.Mutex/sync.RWMutex in internal/apps is invisible to wait-edge " +
		"tracking and the wait-graph supervisor; use the internal/locks wrappers",
	Run: run,
}

// inScope reports whether the unit is an application package: any
// import-path element equal to "apps" (which also matches the analyzer
// test fixtures, whose synthesized paths end in "apps").
func inScope(path string) bool {
	path = strings.TrimSuffix(path, " [xtest]")
	for _, el := range strings.Split(path, "/") {
		if el == "apps" {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Unit.Path) {
		return nil
	}
	info := pass.Unit.Info
	seen := map[*ast.SelectorExpr]bool{}
	pass.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || seen[sel] {
			return true
		}
		seen[sel] = true
		tn, ok := info.Uses[sel.Sel].(*types.TypeName)
		if !ok || tn.Pkg() == nil || tn.Pkg().Path() != "sync" {
			return true
		}
		if tn.Name() == "Mutex" || tn.Name() == "RWMutex" {
			pass.Reportf(sel.Pos(),
				"raw sync.%s in an apps package is invisible to wait-edge tracking; use the internal/locks wrappers (locks.NewMutex)",
				tn.Name())
		}
		return true
	})
	return nil
}
