// Package load type-checks Go packages from source without the go/packages
// machinery, so the cbvet analyzers can run in a hermetic environment (no
// module proxy, no pre-built export data). Import paths resolve two ways:
// paths inside this module map to directories under the module root, and
// everything else is treated as standard library and loaded from
// GOROOT/src (with the GOROOT/src/vendor fallback the gc toolchain uses
// for the vendored golang.org/x dependencies of net/http and friends).
//
// A Loader caches type-checked dependencies, so loading every package in
// the repository type-checks each dependency once. Target packages are
// parsed with comments (the suppression scanner needs them) and include
// in-package _test.go files; external test packages (package foo_test)
// come back as their own unit with the " [xtest]" path suffix.
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
	"sort"
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
	// Files are the parsed files, comments included, in file-name order.
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
	deps    map[string]*types.Package // import path -> dep package (no test files)
	loading map[string]bool           // import cycle guard
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
		deps:    make(map[string]*types.Package),
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

// Import implements types.Importer for dependency resolution. It
// type-checks dependencies from source, without test files, and caches
// the result.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.deps[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	dir, err := l.resolveDir(path)
	if err != nil {
		return nil, err
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("resolving %q: %w", path, err)
	}
	files, err := l.parse(dir, bp.GoFiles, 0)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking %q: %w", path, err)
	}
	l.deps[path] = pkg
	return pkg, nil
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

// LoadDir loads the package in dir as an analysis unit (comments kept,
// in-package test files included). When the directory also contains an
// external test package, a second unit with the " [xtest]" suffix is
// returned after the primary one.
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
	var units []*Unit
	names := append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...)
	sort.Strings(names)
	if len(names) > 0 {
		u, err := l.check(path, abs, names)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	if len(bp.XTestGoFiles) > 0 {
		names := append([]string{}, bp.XTestGoFiles...)
		sort.Strings(names)
		u, err := l.check(path+" [xtest]", abs, names)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

func (l *Loader) check(path, dir string, names []string) (*Unit, error) {
	files, err := l.parse(dir, names, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	u := &Unit{Path: path, Dir: dir, Files: files, Fset: l.Fset, Info: info}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { u.TypeErrors = append(u.TypeErrors, err) },
	}
	// Check never returns a nil package with a custom Error func; type
	// errors land in TypeErrors and analysis proceeds on what resolved.
	u.Pkg, _ = conf.Check(strings.TrimSuffix(path, " [xtest]"), l.Fset, files, info)
	return u, nil
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
