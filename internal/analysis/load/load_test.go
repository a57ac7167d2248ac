package load_test

import (
	"path/filepath"
	"testing"

	"cbreak/internal/analysis/load"
)

const fixture = "testdata/src"

func loadDir(t *testing.T, l *load.Loader, rel string) []*load.Unit {
	t.Helper()
	units, err := l.LoadDir(filepath.Join(fixture, rel))
	if err != nil {
		t.Fatalf("loading %s: %v", rel, err)
	}
	return units
}

func newLoader(t *testing.T) *load.Loader {
	t.Helper()
	l, err := load.New(fixture)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// The external test package sees the package under test with its
// in-package test files, as go test builds it: the names export_test.go
// declares resolve.
func TestExternalTestSeesExportTest(t *testing.T) {
	units := loadDir(t, newLoader(t), "x")
	if len(units) != 2 || units[1].Path != "fixture/x [xtest]" {
		t.Fatalf("units = %d, want fixture/x and its external test", len(units))
	}
	for _, u := range units {
		for _, err := range u.TypeErrors {
			t.Errorf("%s: type error: %v", u.Path, err)
		}
	}
}

// A package that one target imports and a later pattern names is one
// types.Package: the importer, the unit and Import all see the same one,
// and its test files' names are in its scope.
func TestImportedThenLoadedIsOnePackage(t *testing.T) {
	l := newLoader(t)
	y := loadDir(t, l, "y")[0]
	x := loadDir(t, l, "x")[0]
	pkg, err := l.Import("fixture/x")
	if err != nil {
		t.Fatal(err)
	}
	if pkg != x.Pkg {
		t.Error("Import returns a package other than the unit's")
	}
	if imps := y.Pkg.Imports(); len(imps) != 1 || imps[0] != x.Pkg {
		t.Errorf("y imports %v, want the unit's package", imps)
	}
	if x.Pkg.Scope().Lookup("Inner") == nil {
		t.Error("export_test.go's Inner is not in the package scope")
	}
}

// Loading a directory again returns the same units, so no run sees a
// package twice.
func TestLoadDirTwiceReturnsSameUnits(t *testing.T) {
	l := newLoader(t)
	once := loadDir(t, l, "x")
	twice := loadDir(t, l, "x")
	if len(once) != len(twice) {
		t.Fatalf("units = %d then %d", len(once), len(twice))
	}
	for i := range once {
		if once[i] != twice[i] {
			t.Errorf("unit %s was loaded twice", once[i].Path)
		}
	}
}
