// Package astq holds the small AST/type query helpers shared by the
// cbvet analyzers: resolving callees to (package, receiver, name)
// triples, extracting constant string arguments, and unwinding selector
// chains to their base identifier.
package astq

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// ModulePath is the import-path prefix of this module's packages. The
// analyzers match callees against the internal packages both through
// the facade and directly.
const ModulePath = "cbreak"

// Callee resolves the called function of a call expression, looking
// through parentheses. It returns nil for calls of function values,
// builtins, and type conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// FuncPkgPath returns the import path of the package declaring fn, or
// "" for builtins.
func FuncPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// RecvTypeName returns the bare name of fn's receiver type ("Mutex" for
// func (m *Mutex) Lock), or "" for package-level functions.
func RecvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// ConstString evaluates arg to a compile-time string; ok is false for
// anything not constant.
func ConstString(info *types.Info, arg ast.Expr) (string, bool) {
	tv, ok := info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// ConstBool evaluates arg to a compile-time bool.
func ConstBool(info *types.Info, arg ast.Expr) (bool, bool) {
	tv, ok := info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Bool {
		return false, false
	}
	return constant.BoolVal(tv.Value), true
}

// BaseIdent unwinds selectors, indexes, stars, and parens to the
// left-most identifier of an expression ("s" for s.cfg.bps[i].x), or
// nil when the chain roots in a call or literal.
func BaseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// NamedType returns the named type of t, looking through one level of
// pointer.
func NamedType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsPkgType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func IsPkgType(t types.Type, pkgPath, name string) bool {
	named := NamedType(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
