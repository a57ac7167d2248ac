// Package timerleak flags time.After calls inside loops. Each call
// allocates a timer that is not collected until it fires, so a
// select-in-a-loop that takes the other branch leaks one timer per
// iteration — the leak class once removed by hand from the engine's
// release-chain waits, enforced mechanically from now on. The fix
// is a single time.NewTimer (or Ticker) hoisted out of the loop, with
// Stop/Reset per iteration.
package timerleak

import (
	"go/ast"
	"strings"

	"cbreak/internal/analysis"
	"cbreak/internal/analysis/astq"
)

// Analyzer flags time.After inside for/range loops (including the
// bodies of function literals defined there, which run per iteration in
// every idiom this codebase uses). Test files are exempt: their loops
// are bounded and torn down with the process, and per-iteration timeout
// semantics (what time.After gives) are usually what a test wants.
var Analyzer = &analysis.Analyzer{
	Name: "timerleak",
	Doc: "time.After inside a loop leaks one timer per iteration until it fires; " +
		"hoist a time.NewTimer out of the loop and Stop/Reset it instead",
	Run: run,
}

func run(pass *analysis.Pass) error {
	info := pass.Unit.Info
	for _, f := range pass.Unit.Files {
		if strings.HasSuffix(pass.Unit.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		var walk func(n ast.Node, loopDepth int)
		walk = func(n ast.Node, loopDepth int) {
			if n == nil {
				return
			}
			switch n := n.(type) {
			case *ast.ForStmt:
				walk(n.Init, loopDepth)
				walk(n.Cond, loopDepth)
				walk(n.Post, loopDepth)
				walk(n.Body, loopDepth+1)
				return
			case *ast.RangeStmt:
				walk(n.Key, loopDepth)
				walk(n.Value, loopDepth)
				walk(n.X, loopDepth)
				walk(n.Body, loopDepth+1)
				return
			case *ast.CallExpr:
				if loopDepth > 0 {
					// Package-level time.After only: (time.Time).After is
					// a pure comparison with the same name.
					if fn := astq.Callee(info, n); fn != nil &&
						astq.FuncPkgPath(fn) == "time" && fn.Name() == "After" &&
						astq.RecvTypeName(fn) == "" {
						pass.Reportf(n.Pos(),
							"time.After in a loop leaks a timer per iteration; hoist a time.NewTimer outside the loop and Stop/Reset it")
					}
				}
			}
			// Generic traversal for everything else (function literals
			// included: a literal defined inside a loop executes per
			// iteration in the idioms this repo uses).
			ast.Inspect(n, func(c ast.Node) bool {
				if c == n {
					return true
				}
				switch c.(type) {
				case *ast.ForStmt, *ast.RangeStmt, *ast.CallExpr:
					walk(c, loopDepth)
					return false
				}
				return true
			})
		}
		walk(f, 0)
	}
	return nil
}
