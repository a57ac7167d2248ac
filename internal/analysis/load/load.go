// Package load type-checks Go packages from source without the go/packages
// machinery, so the cbvet analyzers can run in a hermetic environment (no
// module proxy, no pre-built export data). Import paths resolve two ways:
// paths inside this module map to directories under the module root, and
// everything else is treated as standard library and loaded from
// GOROOT/src (with the GOROOT/src/vendor fallback the gc toolchain uses
// for the vendored golang.org/x dependencies of net/http and friends).
//
// A Loader checks each import path once, so every declaration has one
// types.Object however many packages import it. A module package is
// parsed with comments (the suppression scanner needs them) and checked
// with full type information the first time anything needs it. When a
// pattern names the package, its in-package _test.go files join that
// same package through a second types.Checker.Files call, as the go
// tool builds a test; its external test package (package foo_test)
// imports the augmented package and comes back as a unit of its own
// with the " [xtest]" path suffix.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Unit is one package ready for analysis: syntax, type information, and
// where it came from.
type Unit struct {
	// Path is the unit's import path ("cbreak/internal/apps/mysql"); for
	// fixture directories outside the module it is synthesized from the
	// directory name. External test packages get a " [xtest]" suffix.
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Files are the parsed files, comments included: the non-test files
	// in file-name order, then the in-package test files in file-name
	// order.
	Files []*ast.File
	// Fset is the loader-wide file set (shared across units).
	Fset *token.FileSet
	// Pkg and Info are the type-checker's output. Pkg is non-nil even
	// when TypeErrors is not empty; Info maps are always populated.
	Pkg  *types.Package
	Info *types.Info
	// TypeErrors collects soft type-check failures (the analyzers run
	// anyway, like go vet does with partial type information).
	TypeErrors []error
}

// Loader loads and caches packages. The zero value is not usable; call
// New.
type Loader struct {
	Fset    *token.FileSet
	ctxt    build.Context
	modRoot string
	modPath string
	pkgs    map[string]*source // import path -> the one package checked from it
	loading map[string]bool    // import cycle guard
}

// source is one package checked from source.
type source struct {
	// unit holds the package, with its syntax and Info when it is a
	// module package.
	unit *Unit
	// check adds the in-package test files to a module package.
	check *types.Checker
	// err is the first type error in the non-test files.
	err error
	// units are what LoadDir returns for the package's directory, once
	// it has run.
	units []*Unit
}

// New returns a loader rooted at the module containing dir (dir itself
// when no go.mod is found above it).
func New(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath := findModule(abs)
	ctxt := build.Default
	// Force the pure-Go file sets: cgo variants cannot be type-checked
	// from source, and every package this module touches has a pure-Go
	// fallback.
	ctxt.CgoEnabled = false
	return &Loader{
		Fset:    token.NewFileSet(),
		ctxt:    ctxt,
		modRoot: root,
		modPath: modPath,
		pkgs:    make(map[string]*source),
		loading: make(map[string]bool),
	}, nil
}

// findModule walks up from dir looking for go.mod; it returns the module
// root and module path, or dir and its base name when none exists.
func findModule(dir string) (root, modPath string) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if after, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(after)
				}
			}
			return d, filepath.Base(d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir, filepath.Base(dir)
		}
		d = parent
	}
}

// ModuleRoot returns the module root directory the loader resolves
// module-internal imports against.
func (l *Loader) ModuleRoot() string { return l.modRoot }

// Import implements types.Importer. It returns the one package checked
// from path, checking its non-test files the first time.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	s, ok := l.pkgs[path]
	if !ok {
		dir, err := l.resolveDir(path)
		if err != nil {
			return nil, err
		}
		bp, err := l.ctxt.ImportDir(dir, 0)
		if err != nil {
			return nil, fmt.Errorf("resolving %q: %w", path, err)
		}
		module := path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
		if s, err = l.checkPackage(path, bp, module); err != nil {
			return nil, err
		}
	}
	if s.err != nil {
		return nil, fmt.Errorf("type-checking %q: %w", path, s.err)
	}
	return s.unit.Pkg, nil
}

// checkPackage checks the non-test files of a package. A module package is
// parsed with comments and checked with an Info and soft errors; a
// standard-library package is checked for its types alone.
func (l *Loader) checkPackage(path string, bp *build.Package, module bool) (*source, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	u := &Unit{Path: path, Dir: bp.Dir, Fset: l.Fset, Pkg: types.NewPackage(path, "")}
	s := &source{unit: u}
	conf := types.Config{Importer: l}
	mode := parser.Mode(0)
	if module {
		mode = parser.ParseComments
		u.Info = newInfo()
		conf.Error = func(err error) { u.TypeErrors = append(u.TypeErrors, err) }
	}
	files, err := l.parse(bp.Dir, bp.GoFiles, mode)
	if err != nil {
		return nil, err
	}
	check := types.NewChecker(&conf, l.Fset, u.Pkg, u.Info)
	s.err = check.Files(files)
	if module {
		u.Files, s.check = files, check
	}
	l.pkgs[path] = s
	return s, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// resolveDir maps an import path to a source directory.
func (l *Loader) resolveDir(path string) (string, error) {
	if path == l.modPath {
		return l.modRoot, nil
	}
	if after, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modRoot, filepath.FromSlash(after)), nil
	}
	goroot := l.ctxt.GOROOT
	for _, dir := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot resolve import %q (not in module %s or GOROOT)", path, l.modPath)
}

func (l *Loader) parse(dir string, names []string, mode parser.Mode) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadDir loads the package in dir as an analysis unit: its in-package
// test files join the package, which keeps its one types.Package. When
// the directory also contains an external test package, a second unit
// with the " [xtest]" suffix is returned after the primary one. Loading
// a directory again returns the same units.
func (l *Loader) LoadDir(dir string) ([]*Unit, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctxt.ImportDir(abs, 0)
	if err != nil {
		if _, nogo := err.(*build.NoGoError); nogo {
			return nil, nil
		}
		return nil, err
	}
	path := l.importPathFor(abs)
	s, ok := l.pkgs[path]
	if !ok {
		if s, err = l.checkPackage(path, bp, true); err != nil {
			return nil, err
		}
	}
	if s.unit.Dir != abs {
		return nil, fmt.Errorf("%s and %s both load as %q", s.unit.Dir, abs, path)
	}
	if s.units != nil {
		return s.units, nil
	}
	s.units = []*Unit{}
	if len(bp.GoFiles)+len(bp.TestGoFiles) > 0 {
		u := s.unit
		tests, err := l.parse(abs, bp.TestGoFiles, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		u.Files = append(u.Files, tests...)
		// Errors reach u.TypeErrors through the checker's Error hook.
		_ = s.check.Files(tests)
		s.units = append(s.units, u)
	}
	if len(bp.XTestGoFiles) > 0 {
		files, err := l.parse(abs, bp.XTestGoFiles, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		x := &Unit{Path: path + " [xtest]", Dir: abs, Files: files, Fset: l.Fset, Info: newInfo()}
		conf := types.Config{
			Importer: l,
			Error:    func(err error) { x.TypeErrors = append(x.TypeErrors, err) },
		}
		// Check never returns a nil package with a custom Error func;
		// type errors land in TypeErrors and analysis proceeds on what
		// resolved.
		x.Pkg, _ = conf.Check(path+"_test", l.Fset, files, x.Info)
		s.units = append(s.units, x)
	}
	return s.units, nil
}

// importPathFor synthesizes the unit import path for a directory: the
// module-relative path when inside the module, the base name otherwise
// (test fixtures).
func (l *Loader) importPathFor(dir string) string {
	if rel, err := filepath.Rel(l.modRoot, dir); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		if rel == "." {
			return l.modPath
		}
		return l.modPath + "/" + filepath.ToSlash(rel)
	}
	return filepath.Base(dir)
}

// Dirs returns root and every directory below it that the pattern
// "root/..." expands to. Directories named testdata, vendor, or starting
// with "." or "_" are skipped, matching the go tool.
func Dirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	return dirs, err
}

// Load expands the given patterns and loads every matching package.
// Supported patterns: a directory path, an import path inside the
// module, and the "./..." / "dir/..." recursive forms (see Dirs).
func (l *Loader) Load(baseDir string, patterns ...string) ([]*Unit, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, "..."):
			root := strings.TrimSuffix(pat, "...")
			root = strings.TrimSuffix(root, "/")
			if root == "" || root == "." {
				root = baseDir
			} else if !filepath.IsAbs(root) {
				root = filepath.Join(baseDir, root)
			}
			ds, err := Dirs(root)
			if err != nil {
				return nil, err
			}
			for _, d := range ds {
				add(d)
			}
		case strings.HasPrefix(pat, l.modPath+"/") || pat == l.modPath:
			d, err := l.resolveDir(pat)
			if err != nil {
				return nil, err
			}
			add(d)
		default:
			if filepath.IsAbs(pat) {
				add(pat)
			} else {
				add(filepath.Join(baseDir, pat))
			}
		}
	}
	var units []*Unit
	for _, d := range dirs {
		us, err := l.LoadDir(d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d, err)
		}
		units = append(units, us...)
	}
	return units, nil
}
