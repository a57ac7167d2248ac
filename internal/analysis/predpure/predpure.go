// Package predpure checks that breakpoint predicate closures are
// side-effect-free. Predicates (Options.ExtraLocal and the Local/Global
// closures of PredTrigger) run inside the engine — under a shard's lock,
// possibly many times per arrival, and concurrently with the partner
// side. A predicate that writes captured state biases or races the very
// interleaving the breakpoint is trying to pin; one that blocks on a
// channel or acquires a lock can deadlock the engine itself; one that
// re-enters the trigger API can self-postpone forever. All of these are
// silent at runtime, which is exactly why they are checked statically.
package predpure

import (
	"go/ast"
	"go/token"
	"go/types"

	"cbreak/internal/analysis"
	"cbreak/internal/analysis/astq"
)

// Analyzer flags side effects inside breakpoint predicate closures.
var Analyzer = &analysis.Analyzer{
	Name: "predpure",
	Doc: "breakpoint predicates (Options.ExtraLocal, PredTrigger Local/Global) must be " +
		"side-effect-free: no writes to captured variables, no channel operations, no " +
		"lock acquisition, no goroutines, no re-entrant trigger calls",
	Run: run,
}

const (
	corePath  = astq.ModulePath + "/internal/core"
	locksPath = astq.ModulePath + "/internal/locks"
)

func run(pass *analysis.Pass) error {
	info := pass.Unit.Info
	seen := map[*ast.FuncLit]bool{}
	check := func(role string, e ast.Expr) {
		lit, ok := ast.Unparen(e).(*ast.FuncLit)
		if !ok || seen[lit] {
			return
		}
		seen[lit] = true
		checkPredicate(pass, role, lit)
	}
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			switch {
			case astq.IsPkgType(t, corePath, "Options"):
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "ExtraLocal" {
							check("ExtraLocal predicate", kv.Value)
						}
					}
				}
			case astq.IsPkgType(t, corePath, "PredTrigger"):
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok && (k.Name == "Local" || k.Name == "Global") {
							check(k.Name+" predicate", kv.Value)
						}
					}
				}
			}
		case *ast.CallExpr:
			fn := astq.Callee(info, n)
			if fn == nil || fn.Name() != "NewPredTrigger" {
				return true
			}
			if p := astq.FuncPkgPath(fn); p != corePath && p != astq.ModulePath {
				return true
			}
			if len(n.Args) >= 4 {
				check("Local predicate", n.Args[2])
				check("Global predicate", n.Args[3])
			}
		}
		return true
	})
	return nil
}

// checkPredicate walks one predicate closure, reporting every construct
// that can bias, block, or re-enter the engine.
func checkPredicate(pass *analysis.Pass, role string, lit *ast.FuncLit) {
	info := pass.Unit.Info

	captured := func(e ast.Expr) (string, bool) {
		id := astq.BaseIdent(e)
		if id == nil || id.Name == "_" {
			return "", false
		}
		obj := info.Uses[id]
		if obj == nil {
			return "", false
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return "", false
		}
		// Declared outside the closure's extent = captured.
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return "", false
		}
		return id.Name, true
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if name, ok := captured(lhs); ok {
					pass.Reportf(n.Pos(), "%s writes captured variable %s; predicates run inside the engine and must be side-effect-free", role, name)
				}
			}
		case *ast.IncDecStmt:
			if name, ok := captured(n.X); ok {
				pass.Reportf(n.Pos(), "%s writes captured variable %s; predicates run inside the engine and must be side-effect-free", role, name)
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "%s sends on a channel; a blocked predicate wedges the engine shard", role)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "%s receives from a channel; a blocked predicate wedges the engine shard", role)
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "%s blocks in select; a blocked predicate wedges the engine shard", role)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s spawns a goroutine; predicates may run many times per arrival and must be side-effect-free", role)
		case *ast.CallExpr:
			checkPredicateCall(pass, role, n)
		}
		return true
	})
}

func checkPredicateCall(pass *analysis.Pass, role string, call *ast.CallExpr) {
	info := pass.Unit.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "close" {
			pass.Reportf(call.Pos(), "%s closes a channel; predicates must be side-effect-free", role)
			return
		}
	}
	fn := astq.Callee(info, call)
	if fn == nil {
		return
	}
	pkg := astq.FuncPkgPath(fn)
	recv := astq.RecvTypeName(fn)
	switch pkg {
	case locksPath:
		switch fn.Name() {
		case "Lock", "LockAt", "TryLock", "With", "WithAt",
			"Wait", "WaitAt", "WaitTimeout", "WaitTimeoutAt":
			pass.Reportf(call.Pos(), "%s acquires %s.%s; lock acquisition inside a predicate can deadlock against the engine and biases BTrigger", role, recv, fn.Name())
		}
	case "sync":
		switch fn.Name() {
		case "Lock", "RLock", "Wait":
			pass.Reportf(call.Pos(), "%s acquires sync.%s.%s inside a predicate; this can deadlock against the engine", role, recv, fn.Name())
		}
	case corePath, astq.ModulePath:
		if two, multi := triggerish(fn.Name()); two || multi {
			pass.Reportf(call.Pos(), "%s re-enters the trigger API (%s); a predicate that postpones can deadlock the shard", role, fn.Name())
		}
	}
}

func triggerish(name string) (bool, bool) {
	switch name {
	case "TriggerHere", "TriggerHereOpts", "TriggerHereAnd", "Trigger", "TriggerAnd", "TriggerOutcome":
		return true, false
	case "TriggerHereMulti", "TriggerHereMultiAnd", "TriggerMulti", "TriggerMultiAnd":
		return false, true
	}
	return false, false
}
