// Package unused reports exported package-level declarations that no
// program reaches. It is a whole-program check. From the entry points
// it marks every declaration that a chain of references reaches:
//
//   - the main and init functions of every package main;
//   - the root package's exported API, plus the exported methods of
//     the types it declares or aliases;
//   - every init function;
//   - every _test.go file, for declarations outside its own package.
//
// A reached type also reaches those of its methods that satisfy an
// interface seen anywhere in the program, since a call through the
// interface names only the interface's method. An exported declaration
// left unmarked is code that only its own package, or its own tests,
// use: delete it, unexport it, or suppress the finding with a reason.
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
	Doc: "exported declarations that no program, root-package API or other " +
		"package's test reaches (whole-module runs only)",
	Run: run,
	NewState: func() any {
		return &state{
			decls:   map[string]*decl{},
			tests:   map[string][]string{},
			apis:    map[string][]string{},
			loaded:  map[string]bool{},
			pkgs:    map[*types.Package]bool{},
			ifaces:  map[string]bool{},
			byMeth:  map[string][][]string{},
			methods: map[string][]string{},
		}
	},
	Finish: finish,
}

// A decl is one package-level declaration of a non-test file.
type decl struct {
	key string
	pkg string
	// what names an exported declaration in a finding ("method
	// Handle.Close"); it is "" for declarations never reported.
	what string
	pos  token.Pos
	// refs are the keys of the declarations its syntax names.
	refs []string
	// named is the declared type, for type declarations.
	named *types.Named
}

type state struct {
	decls map[string]*decl
	// roots are the keys the programs and init functions name.
	roots []string
	// tests maps a package path to the keys its _test.go files name.
	tests map[string][]string
	// apis maps the directory of each loaded package that holds a
	// go.mod to its exported API's keys.
	apis map[string][]string
	// loaded holds every loaded unit's directory.
	loaded map[string]bool

	pkgs   map[*types.Package]bool // packages scanned for interfaces
	ifaces map[string]bool         // method-set signatures seen
	// byMeth maps a method signature to the interfaces (as lists of
	// method signatures) that contain it.
	byMeth map[string][][]string
	// methods caches, per type key, the keys of its methods that
	// satisfy a seen interface.
	methods map[string][]string
}

func run(pass *analysis.Pass) error {
	st := pass.State.(*state)
	u := pass.Unit
	pkg := strings.TrimSuffix(u.Path, " [xtest]")
	st.loaded[u.Dir] = true
	main := u.Pkg.Name() == "main"
	// The external test package shares its path with the package under
	// test; its own declarations are test code, not targets.
	var self *types.Package
	if pkg != u.Path {
		self = u.Pkg
	}
	refs := func(n ast.Node) []string {
		var out []string
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := u.Info.Uses[id]; obj != nil && obj.Pkg() != self {
					if k := key(obj); k != "" {
						out = append(out, k)
					}
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

// add records one declaration. A package main's declarations are never
// reported: a program's exported names are not an API.
func (s *state) add(pkg, kind string, name *ast.Ident, obj types.Object, refs []string, main bool) {
	k := key(obj)
	if k == "" {
		return
	}
	d := &decl{key: k, pkg: pkg, pos: name.Pos(), refs: refs}
	if !main && name.IsExported() {
		d.what = kind + " " + strings.TrimPrefix(k, obj.Pkg().Path()+".")
	}
	if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
		d.named, _ = tn.Type().(*types.Named)
	}
	s.decls[k] = d
}

// api returns the keys of a root package's exported declarations and of
// the exported methods of the types it declares or aliases.
func api(u *load.Unit) []string {
	var out []string
	for _, name := range u.Pkg.Scope().Names() {
		obj := u.Pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		out = append(out, key(obj))
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
				out = append(out, key(m))
			}
		}
	}
	return out
}

// key names a package-level object across type-checker universes (a
// package loaded as an analysis unit and again as a dependency yields
// two objects per declaration): "path.Name" or "path.Recv.Name" for
// methods. It is "" for anything that is not a package-level
// declaration.
func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			named := astq.NamedType(recv.Type())
			if named == nil {
				return ""
			}
			return o.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + o.Name()
		}
	case *types.Var:
		if o.IsField() {
			return ""
		}
	case *types.PkgName, *types.Label:
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
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
	sigs := make([]string, it.NumMethods())
	for i := range sigs {
		sigs[i] = signature(it.Method(i))
	}
	id := strings.Join(sigs, ";")
	if s.ifaces[id] {
		return
	}
	s.ifaces[id] = true
	for _, sig := range sigs {
		s.byMeth[sig] = append(s.byMeth[sig], sigs)
	}
}

// signature is a method's name and parameter and result types, free of
// parameter names and of the type-checker universe the types come from.
func signature(f *types.Func) string {
	var b strings.Builder
	b.WriteString(f.Name())
	qual := func(p *types.Package) string { return p.Path() }
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(t.At(i).Type(), qual))
		}
		b.WriteByte(')')
	}
	sig := f.Type().(*types.Signature)
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	tuple(sig.Results())
	return b.String()
}

// implements returns the keys of d's methods that satisfy a seen
// interface, promoted methods included.
func (s *state) implements(d *decl) []string {
	if d.named == nil {
		return nil
	}
	if out, ok := s.methods[d.key]; ok {
		return out
	}
	have := map[string]string{}
	if _, ok := d.named.Underlying().(*types.Interface); !ok {
		ms := types.NewMethodSet(types.NewPointer(d.named))
		for i := 0; i < ms.Len(); i++ {
			f := ms.At(i).Obj().(*types.Func)
			have[signature(f)] = key(f)
		}
	}
	var out []string
	for sig := range have {
		for _, it := range s.byMeth[sig] {
			if covers(have, it) {
				for _, m := range it {
					out = append(out, have[m])
				}
			}
		}
	}
	s.methods[d.key] = out
	return out
}

func covers(have map[string]string, sigs []string) bool {
	for _, sig := range sigs {
		if _, ok := have[sig]; !ok {
			return false
		}
	}
	return true
}

// walk visits every declaration reachable from the keys in from.
func (s *state) walk(from []string, visit func(*decl)) {
	seen := map[string]bool{}
	stack := append([]string(nil), from...)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d := s.decls[k]
		if seen[k] || d == nil {
			continue
		}
		seen[k] = true
		visit(d)
		stack = append(stack, d.refs...)
		stack = append(stack, s.implements(d)...)
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
	reached := map[string]bool{}
	st.walk(append(st.roots, st.apis[root]...), func(d *decl) { reached[d.key] = true })
	for pkg, refs := range st.tests {
		st.walk(refs, func(d *decl) {
			if d.pkg != pkg {
				reached[d.key] = true
			}
		})
	}
	for _, d := range st.decls {
		if d.what != "" && !reached[d.key] {
			f.Reportf(d.pos, "exported %s is reached by no program, root-package API or other package's test", d.what)
		}
	}
	return nil
}
