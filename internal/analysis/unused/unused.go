// Package unused reports package-level declarations that no program
// reaches. It is a whole-program check. From the entry points it marks
// every declaration that a chain of references reaches:
//
//   - the main and init functions of every package main;
//   - the root package's exported API, plus the exported methods of
//     the types it declares or aliases;
//   - every init function;
//   - every _test.go file, for declarations outside its own package.
//
// A reached type also reaches those of its methods that satisfy an
// interface seen anywhere in the program (types.Implements), since a
// call through the interface names only the interface's method. The
// loader checks each package once, so every declaration is one
// types.Object and the walk follows objects.
//
// A declaration left unmarked, exported or not, is reached by its own
// package's tests at most: delete it, move it into the test file that
// uses it, or suppress the finding with a reason. Declarations of a
// package main are never reported, since nothing imports a program.
//
// The check needs the whole module: in go vet's per-package mode, or
// when the patterns leave any package of the module out, it reports
// nothing.
package unused

import (
	"go/ast"
	"go/build"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"cbreak/internal/analysis"
	"cbreak/internal/analysis/astq"
	"cbreak/internal/analysis/load"
)

// Analyzer is the whole-program unreached-declaration check.
var Analyzer = &analysis.Analyzer{
	Name: "unused",
	Doc: "declarations that no program, root-package API or other package's " +
		"test reaches (whole-module runs only)",
	Run: run,
	NewState: func() any {
		return &state{
			decls:  map[types.Object]*decl{},
			tests:  map[string][]types.Object{},
			apis:   map[string][]types.Object{},
			loaded: map[string]bool{},
			pkgs:   map[*types.Package]bool{},
			ifaces: map[string][]*types.Interface{},
		}
	},
	Finish: finish,
}

// A decl is one package-level declaration of a non-test file.
type decl struct {
	pkg string
	// what names the declaration in a finding ("exported method
	// Handle.Close"); it is "" for declarations never reported.
	what string
	pos  token.Pos
	// refs are the declarations its syntax names and, for a type, those
	// of its methods that an interface seen in the program asks for.
	refs []types.Object
	// named is the declared type, for type declarations.
	named *types.Named
}

type state struct {
	decls map[types.Object]*decl
	// roots are the declarations the programs and init functions name.
	roots []types.Object
	// tests maps a package path to the declarations its _test.go files
	// name.
	tests map[string][]types.Object
	// apis maps the directory of each loaded package that holds a
	// go.mod to its exported API.
	apis map[string][]types.Object
	// loaded holds every loaded unit's directory.
	loaded map[string]bool

	pkgs map[*types.Package]bool // packages scanned for interfaces
	// ifaces maps a method name to the interfaces seen whose first
	// method it is.
	ifaces map[string][]*types.Interface
}

func run(pass *analysis.Pass) error {
	st := pass.State.(*state)
	u := pass.Unit
	pkg := strings.TrimSuffix(u.Path, " [xtest]")
	st.loaded[u.Dir] = true
	main := u.Pkg.Name() == "main"
	refs := func(n ast.Node) []types.Object {
		var out []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := origin(u.Info.Uses[id]); obj != nil {
					out = append(out, obj)
				}
			}
			return true
		})
		return out
	}

	for _, f := range u.Files {
		if strings.HasSuffix(u.Fset.File(f.Pos()).Name(), "_test.go") {
			st.tests[pkg] = append(st.tests[pkg], refs(f)...)
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if name == "init" || name == "_" || main && name == "main" && d.Recv == nil {
					st.roots = append(st.roots, refs(d)...)
					continue
				}
				kind := "func"
				if d.Recv != nil {
					kind = "method"
				}
				st.add(pkg, kind, d.Name, u.Info.Defs[d.Name], refs(d), main)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						st.add(pkg, "type", s.Name, u.Info.Defs[s.Name], refs(s), main)
					case *ast.ValueSpec:
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						r := refs(s)
						for _, n := range s.Names {
							if n.Name == "_" {
								st.roots = append(st.roots, r...)
								continue
							}
							st.add(pkg, kind, n, u.Info.Defs[n], r, main)
						}
					}
				}
			}
		}
	}

	if _, err := os.Stat(filepath.Join(u.Dir, "go.mod")); err == nil && pkg == u.Path {
		st.apis[u.Dir] = api(u)
	}
	st.scanInterfaces(u)
	return nil
}

// origin returns the declared object behind a use: the generic function
// or method for an instantiated one.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// add records one declaration; those of a package main are never
// reported.
func (s *state) add(pkg, kind string, name *ast.Ident, obj types.Object, refs []types.Object, main bool) {
	if obj == nil {
		return
	}
	d := &decl{pkg: pkg, pos: name.Pos(), refs: refs}
	if !main {
		d.what = kind + " " + name.Name
		if f, ok := obj.(*types.Func); ok && astq.RecvTypeName(f) != "" {
			d.what = kind + " " + astq.RecvTypeName(f) + "." + name.Name
		}
		if name.IsExported() {
			d.what = "exported " + d.what
		}
	}
	if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
		d.named, _ = tn.Type().(*types.Named)
	}
	s.decls[obj] = d
}

// api returns a root package's exported declarations and the exported
// methods of the types it declares or aliases.
func api(u *load.Unit) []types.Object {
	var out []types.Object
	for _, name := range u.Pkg.Scope().Names() {
		obj := u.Pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		out = append(out, obj)
		if _, ok := obj.(*types.TypeName); !ok {
			continue
		}
		named := astq.NamedType(types.Unalias(obj.Type()))
		if named == nil {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				out = append(out, origin(m))
			}
		}
	}
	return out
}

// scanInterfaces records the interfaces of the unit's package, of every
// package it imports, and of every interface type its code spells out.
func (s *state) scanInterfaces(u *load.Unit) {
	s.addInterface(types.Universe.Lookup("error").Type())
	var scan func(p *types.Package)
	scan = func(p *types.Package) {
		if s.pkgs[p] {
			return
		}
		s.pkgs[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				s.addInterface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scan(imp)
		}
	}
	scan(u.Pkg)
	for _, tv := range u.Info.Types {
		if tv.IsType() {
			s.addInterface(tv.Type)
		}
	}
}

func (s *state) addInterface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return
	}
	first := it.Method(0).Name()
	for _, seen := range s.ifaces[first] {
		if seen == it {
			return
		}
	}
	s.ifaces[first] = append(s.ifaces[first], it)
}

// implements returns the methods of a declared type, promoted methods
// included, that satisfy a seen interface. A generic type counts as
// satisfying an interface whose methods it has by name: its methods'
// signatures mention type parameters that only an instance binds, and
// types.Implements leaves uninstantiated types unspecified.
func (s *state) implements(named *types.Named) []types.Object {
	if types.IsInterface(named) {
		return nil
	}
	ptr := types.NewPointer(named)
	ms := types.NewMethodSet(ptr)
	var out []types.Object
	for i := 0; i < ms.Len(); i++ {
	next:
		for _, it := range s.ifaces[ms.At(i).Obj().Name()] {
			if named.TypeParams().Len() == 0 && !types.Implements(ptr, it) {
				continue
			}
			var found []types.Object
			for j := 0; j < it.NumMethods(); j++ {
				sel := ms.Lookup(it.Method(j).Pkg(), it.Method(j).Name())
				if sel == nil {
					continue next
				}
				found = append(found, origin(sel.Obj()))
			}
			out = append(out, found...)
		}
	}
	return out
}

// walk visits every declaration reachable from the objects in from.
func (s *state) walk(from []types.Object, visit func(*decl)) {
	seen := map[*decl]bool{}
	stack := append([]types.Object(nil), from...)
	for len(stack) > 0 {
		d := s.decls[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		if d == nil || seen[d] {
			continue
		}
		seen[d] = true
		visit(d)
		stack = append(stack, d.refs...)
	}
}

// module returns the outermost loaded directory holding a go.mod, or ""
// when the run left any package below it out.
func (s *state) module() string {
	root := ""
	for dir := range s.apis {
		if root == "" || len(dir) < len(root) {
			root = dir
		}
	}
	if root == "" {
		return ""
	}
	dirs, err := load.Dirs(root)
	if err != nil {
		return ""
	}
	for _, d := range dirs {
		if _, err := build.ImportDir(d, 0); err == nil && !s.loaded[d] {
			return ""
		}
	}
	return root
}

func finish(f *analysis.Finish) error {
	st := f.State.(*state)
	if f.Partial {
		return nil
	}
	root := st.module()
	if root == "" {
		return nil
	}
	for _, d := range st.decls {
		if d.named != nil {
			d.refs = append(d.refs, st.implements(d.named)...)
		}
	}
	reached := map[*decl]bool{}
	st.walk(append(st.roots, st.apis[root]...), func(d *decl) { reached[d] = true })
	for pkg, refs := range st.tests {
		st.walk(refs, func(d *decl) {
			if d.pkg != pkg {
				reached[d] = true
			}
		})
	}
	for _, d := range st.decls {
		if d.what != "" && !reached[d] {
			f.Reportf(d.pos, "%s is reached by no program, root-package API or other package's test", d.what)
		}
	}
	return nil
}
