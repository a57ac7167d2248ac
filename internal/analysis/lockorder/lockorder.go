// Package lockorder builds a static lock-acquisition-order graph over
// internal/locks call sites and reports cycles as potential deadlocks.
// It is the compile-time complement of the runtime wait-graph supervisor
// (internal/waitgraph): the supervisor confirms a cycle that is
// currently wedging live goroutines, this analyzer finds the crossed
// acquisition orders before anything runs, naming the same lock classes
// — a bridge test asserts both name the mysql FLUSH-vs-DML cycle
// identically.
//
// Lock identity is static: a struct field, a package-level variable, or
// a local variable holding a locks.Mutex. Where the mutex is
// created with a constant name (locks.NewMutex("mysql.binlog")), the
// diagnostic uses that runtime name, so static findings line up with
// wait-graph reports and lock-class predicates. Otherwise a field or
// package variable is named by its path, and a local by the package,
// file, line and column of its declaration:
//
//	cbreak/internal/waitgraph/waitgraph_test.go:696:2.a
//
// Analysis is flow-approximate in the usual static-deadlock way:
// straight-line acquisition order per function (branches analyzed
// independently), plus one level of interprocedural propagation through
// a whole-program summary fixpoint ("calling Append acquires
// mysql.binlog").
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"cbreak/internal/analysis"
	"cbreak/internal/analysis/astq"
	"cbreak/internal/analysis/load"
	"cbreak/internal/cycles"
)

// Analyzer reports lock-order cycles.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "static lock-acquisition-order cycles over internal/locks call sites: two " +
		"code paths that acquire the same locks in opposite orders can deadlock",
	Run: func(pass *analysis.Pass) error {
		st := pass.State.(*state)
		st.collectUnit(pass.Unit)
		return nil
	},
	NewState: func() any { return newState() },
	Finish:   finish,
}

const locksPath = astq.ModulePath + "/internal/locks"
const memoryPath = astq.ModulePath + "/internal/memory"

// Edge is one observed acquisition order: a site that acquires To while
// holding From.
type Edge struct {
	// From and To are lock class names: the constant NewMutex name when
	// one is statically known, the field/variable path otherwise.
	From, To string
	// Pos is the acquiring site (the Lock call, or the call through
	// which the acquisition happens).
	Pos token.Pos
	// Via names the callee the acquisition happens through ("" for a
	// direct Lock at the site).
	Via string
}

// Cycle is one lock-order cycle: Classes in cycle order, one Edge per
// hop.
type Cycle struct {
	Classes []string
	Edges   []Edge
}

type state struct {
	// bindings maps a static lock identity (refKey) to the constant
	// name it was created with.
	bindings map[string]string
	// cellBindings maps a static cell/ref identity (refKey) to the
	// constant name it was created with (NewCell/NewRef second arg).
	cellBindings map[string]string
	// funcs are the collected bodies: every function declaration, and
	// every function literal analyzed as a root of its own.
	funcs []*funcInfo
	// decls maps a declared function to its body's facts, which its
	// callers' summaries take in.
	decls map[*types.Func]*funcInfo
}

func newState() *state {
	return &state{
		bindings:     map[string]string{},
		cellBindings: map[string]string{},
		decls:        map[*types.Func]*funcInfo{},
	}
}

// newFunc adds an empty body to the state.
func (st *state) newFunc() *funcInfo {
	fi := &funcInfo{}
	st.funcs = append(st.funcs, fi)
	return fi
}

type pendingCall struct {
	held   []string
	callee *types.Func // the declared function, for a generic one's instances too
	name   string      // display name of the callee
	pos    token.Pos
}

type funcInfo struct {
	directAcq []string
	edges     []Edge // direct edges, From/To hold refKeys until finish
	pending   []pendingCall
	// accesses are the function's direct memory-cell accesses with the
	// lock refKeys held around each (the conflicts analyzer's input).
	accesses []staticAccess
}

// staticAccess is one direct Cell/Ref method call: the cell's refKey,
// whether it mutates, and the locks held at the call.
type staticAccess struct {
	ref   string
	write bool
	held  []string
	pos   token.Pos
}

// --- collection ---------------------------------------------------------

func (st *state) collectUnit(u *load.Unit) {
	c := &collector{st: st, u: u}
	for _, f := range u.Files {
		c.bindFile(f)
	}
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fi := st.newFunc()
			if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
				st.decls[fn] = fi
			}
			w := &walker{c: c, fi: fi}
			w.stmt(fd.Body)
		}
	}
}

type collector struct {
	st *state
	u  *load.Unit
}

// lockCtor returns the constant name argument of a locks/cbreak mutex
// constructor call, or ok=false.
func (c *collector) lockCtor(e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn := astq.Callee(c.u.Info, call)
	if fn == nil {
		return "", false
	}
	switch astq.FuncPkgPath(fn) {
	case locksPath, astq.ModulePath:
	default:
		return "", false
	}
	switch fn.Name() {
	case "NewMutex", "NewClassMutex":
	default:
		return "", false
	}
	if len(call.Args) == 0 {
		return "", false
	}
	return astq.ConstString(c.u.Info, call.Args[0])
}

// cellCtor returns the constant name argument of a memory cell/ref
// constructor call (NewCell/NewRef, name is the SECOND argument), or
// ok=false.
func (c *collector) cellCtor(e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn := astq.Callee(c.u.Info, call)
	if fn == nil || astq.FuncPkgPath(fn) != memoryPath {
		return "", false
	}
	switch fn.Name() {
	case "NewCell", "NewRef":
	default:
		return "", false
	}
	if len(call.Args) < 2 {
		return "", false
	}
	return astq.ConstString(c.u.Info, call.Args[1])
}

// bindFile records refKey -> lock-name bindings from composite
// literals, assignments, and var declarations.
func (c *collector) bindFile(f *ast.File) {
	info := c.u.Info
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			named := astq.NamedType(info.TypeOf(n))
			if named == nil || named.Obj().Pkg() == nil {
				return true
			}
			tkey := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if name, ok := c.lockCtor(kv.Value); ok {
					c.st.bindings["field:"+tkey+"."+key.Name] = name
				}
				if name, ok := c.cellCtor(kv.Value); ok {
					c.st.cellBindings["field:"+tkey+"."+key.Name] = name
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				ref := c.refKey(n.Lhs[i])
				if ref == "" {
					continue
				}
				if name, ok := c.lockCtor(rhs); ok {
					c.st.bindings[ref] = name
				}
				if name, ok := c.cellCtor(rhs); ok {
					c.st.cellBindings[ref] = name
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if i >= len(n.Names) {
					break
				}
				ref := c.refKey(n.Names[i])
				if ref == "" {
					continue
				}
				if name, ok := c.lockCtor(v); ok {
					c.st.bindings[ref] = name
				}
				if name, ok := c.cellCtor(v); ok {
					c.st.cellBindings[ref] = name
				}
			}
		}
		return true
	})
}

// refKey computes the static identity of a lock expression: the struct
// field it names, the package variable, or the local variable. "" when
// the expression has no stable identity (map element, call result).
func (c *collector) refKey(e ast.Expr) string {
	info := c.u.Info
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return ""
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "pkgvar:" + v.Pkg().Path() + "." + v.Name()
		}
		// A local lock is named by where it is declared, which no other
		// package's loading moves.
		p := c.u.Fset.Position(v.Pos())
		return fmt.Sprintf("local:%s/%s:%d:%d.%s", strings.TrimSuffix(c.u.Path, " [xtest]"),
			filepath.Base(p.Filename), p.Line, p.Column, v.Name())
	case *ast.SelectorExpr:
		sel, ok := info.Selections[x]
		if ok && sel.Kind() == types.FieldVal {
			named := astq.NamedType(sel.Recv())
			if named != nil && named.Obj().Pkg() != nil {
				return "field:" + named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Obj().Name()
			}
			return ""
		}
		// Package-qualified var: pkg.Mu
		if obj, ok := info.Uses[x.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return "pkgvar:" + obj.Pkg().Path() + "." + obj.Name()
		}
		return ""
	case *ast.StarExpr:
		return c.refKey(x.X)
	}
	return ""
}

// --- intra-function walk ------------------------------------------------

type walker struct {
	c    *collector
	fi   *funcInfo
	held []string
}

func (w *walker) snapshot() []string { return append([]string(nil), w.held...) }
func (w *walker) restore(s []string) { w.held = s }

func (w *walker) acquire(ref string, pos token.Pos) {
	for _, h := range w.held {
		if h != ref {
			w.fi.edges = append(w.fi.edges, Edge{From: h, To: ref, Pos: pos})
		}
	}
	w.fi.directAcq = append(w.fi.directAcq, ref)
	w.held = append(w.held, ref)
}

func (w *walker) release(ref string) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i] == ref {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

func (w *walker) stmt(n ast.Stmt) {
	if n == nil {
		return
	}
	switch s := n.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.stmt(st)
		}
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		snap := w.snapshot()
		w.stmt(s.Body)
		w.restore(snap)
		w.stmt(s.Else)
		w.restore(snap)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		snap := w.snapshot()
		w.stmt(s.Body)
		w.stmt(s.Post)
		w.restore(snap)
	case *ast.RangeStmt:
		w.expr(s.X)
		snap := w.snapshot()
		w.stmt(s.Body)
		w.restore(snap)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		w.clauses(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.clauses(s.Body)
	case *ast.SelectStmt:
		w.clauses(s.Body)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.GoStmt:
		// The goroutine does not inherit the caller's held set (it runs
		// concurrently), so its body is analyzed as a separate root.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.c.anonRoot(lit)
		}
		for _, a := range s.Call.Args {
			w.expr(a)
		}
	case *ast.DeferStmt:
		// Deferred unlocks release at function exit, which cannot add
		// order edges; deferred closures likewise run after the body.
		// Nothing to track.
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	}
}

func (w *walker) clauses(body *ast.BlockStmt) {
	snap := w.snapshot()
	for _, cl := range body.List {
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.expr(e)
			}
			for _, st := range c.Body {
				w.stmt(st)
			}
		case *ast.CommClause:
			w.stmt(c.Comm)
			for _, st := range c.Body {
				w.stmt(st)
			}
		}
		w.restore(snap)
	}
}

// expr walks an expression, handling lock-method calls and recording
// ordinary calls for the interprocedural summary.
func (w *walker) expr(n ast.Expr) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.CallExpr:
			// call() returns true when it fully handled the subtree
			// (lock method or With-closure).
			return !w.call(c)
		case *ast.FuncLit:
			// A literal that is not a With-closure (those are consumed
			// by call) and not a go body: analyzed as its own root,
			// without the caller's held set.
			w.c.anonRoot(c)
			return false
		}
		return true
	})
}

// call processes one call expression; it returns true when it consumed
// the node (children already walked as needed).
func (w *walker) call(call *ast.CallExpr) bool {
	info := w.c.u.Info
	fn := astq.Callee(info, call)
	if fn == nil {
		return false
	}
	if astq.FuncPkgPath(fn) == locksPath {
		recv := astq.RecvTypeName(fn)
		if recv == "Mutex" {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return false
			}
			ref := w.c.refKey(sel.X)
			if ref == "" {
				// Unidentifiable lock: walk args normally.
				return false
			}
			switch fn.Name() {
			case "Lock", "LockAt", "TryLock":
				w.acquire(ref, call.Pos())
				return true
			case "Unlock", "UnlockAt":
				w.release(ref)
				return true
			case "With", "WithAt":
				w.acquire(ref, call.Pos())
				if len(call.Args) > 0 {
					if lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit); ok {
						w.stmt(lit.Body)
					}
				}
				w.release(ref)
				return true
			}
		}
		return false
	}
	if astq.FuncPkgPath(fn) == memoryPath {
		w.cellCall(fn, call)
		return false
	}
	// Ordinary resolvable call: summary material for both the
	// acquisition fixpoint (lock edges through callees) and the
	// access expansion (cell accesses through callees, which also
	// matter when NO lock is held — the conflicts analyzer's case).
	w.fi.pending = append(w.fi.pending, pendingCall{
		held:   w.snapshot(),
		callee: fn.Origin(),
		name:   displayName(fn),
		pos:    call.Pos(),
	})
	return false
}

// cellCall records a Cell/Ref method call as a static memory access
// with the current held set.
func (w *walker) cellCall(fn *types.Func, call *ast.CallExpr) {
	var write bool
	switch astq.RecvTypeName(fn) {
	case "Cell":
		switch fn.Name() {
		case "Load":
		case "Store", "Add", "AtomicAdd", "CompareAndSwap":
			write = true
		default:
			return
		}
	case "Ref":
		switch fn.Name() {
		case "Load":
		case "Store":
			write = true
		default:
			return
		}
	default:
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	ref := w.c.refKey(sel.X)
	if ref == "" {
		return
	}
	w.fi.accesses = append(w.fi.accesses, staticAccess{
		ref:   ref,
		write: write,
		held:  w.snapshot(),
		pos:   call.Pos(),
	})
}

func displayName(fn *types.Func) string {
	if r := astq.RecvTypeName(fn); r != "" {
		return "(*" + r + ")." + fn.Name()
	}
	return fn.Name()
}

// anonRoot analyzes a function literal as an independent root (empty
// held set): goroutine bodies and stored closures.
func (c *collector) anonRoot(lit *ast.FuncLit) {
	w := &walker{c: c, fi: c.st.newFunc()}
	w.stmt(lit.Body)
}

// --- whole-program graph ------------------------------------------------

// className resolves a refKey to its display name: the constant NewMutex
// name when bound, a trimmed identity path otherwise.
func (st *state) className(ref string) string {
	if n, ok := st.bindings[ref]; ok {
		return n
	}
	for _, p := range []string{"field:", "pkgvar:", "local:"} {
		if rest, ok := strings.CutPrefix(ref, p); ok {
			return rest
		}
	}
	return ref
}

// edges assembles the whole-program edge set: direct edges plus pending
// call edges expanded through the acquisition summary fixpoint.
func (st *state) allEdges() []Edge {
	// Summary fixpoint: acquires(f) = direct ∪ acquires(callees).
	acquires := map[*funcInfo]map[string]bool{}
	for _, fi := range st.funcs {
		set := map[string]bool{}
		for _, r := range fi.directAcq {
			set[r] = true
		}
		acquires[fi] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range st.funcs {
			set := acquires[fi]
			for _, p := range fi.pending {
				for r := range acquires[st.decls[p.callee]] {
					if !set[r] {
						set[r] = true
						changed = true
					}
				}
			}
		}
	}
	var out []Edge
	for _, fi := range st.funcs {
		for _, e := range fi.edges {
			out = append(out, Edge{From: st.className(e.From), To: st.className(e.To), Pos: e.Pos})
		}
		for _, p := range fi.pending {
			for to := range acquires[st.decls[p.callee]] {
				for _, from := range p.held {
					if from == to {
						continue
					}
					out = append(out, Edge{
						From: st.className(from), To: st.className(to),
						Pos: p.pos, Via: p.name,
					})
				}
			}
		}
	}
	return out
}

// cycles finds the elementary cycles of at most six classes in the
// class graph, deduplicated by participant set, deterministic for a
// given state.
func (st *state) cycles() []Cycle {
	edges := st.allEdges()
	// One representative edge per (from, to), earliest position wins.
	best := map[[2]string]Edge{}
	adj := map[string][]string{}
	for _, e := range edges {
		k := [2]string{e.From, e.To}
		if old, ok := best[k]; !ok || e.Pos < old.Pos {
			if !ok {
				adj[e.From] = append(adj[e.From], e.To)
			}
			best[k] = e
		}
	}
	nodes := make([]string, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	seen := map[string]bool{}
	var out []Cycle
	const maxLen = 6
	cycles.Find(nodes, func(n string) []string { return adj[n] }, maxLen, func(cyc []string) bool {
		if key := canonical(cyc); !seen[key] {
			seen[key] = true
			out = append(out, st.buildCycle(cyc, best))
		}
		return true
	})
	return out
}

func canonical(cycle []string) string {
	s := append([]string(nil), cycle...)
	sort.Strings(s)
	return strings.Join(s, "\x00")
}

func (st *state) buildCycle(classes []string, best map[[2]string]Edge) Cycle {
	c := Cycle{Classes: classes}
	for i, from := range classes {
		to := classes[(i+1)%len(classes)]
		c.Edges = append(c.Edges, best[[2]string{from, to}])
	}
	return c
}

func finish(f *analysis.Finish) error {
	st := f.State.(*state)
	for _, cyc := range st.cycles() {
		ring := strings.Join(append(append([]string{}, cyc.Classes...), cyc.Classes[0]), " -> ")
		for i, e := range cyc.Edges {
			var others []string
			for j, o := range cyc.Edges {
				if j != i {
					p := f.Fset.Position(o.Pos)
					others = append(others, fmt.Sprintf("%s:%d", p.Filename, p.Line))
				}
			}
			via := ""
			if e.Via != "" {
				via = " via " + e.Via
			}
			f.Reportf(e.Pos,
				"potential deadlock: lock-order cycle %s; this site acquires %s while holding %s%s; opposing acquisition at %s",
				ring, e.To, e.From, via, strings.Join(others, ", "))
		}
	}
	return nil
}
