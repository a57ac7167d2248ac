package conflicts

import (
	"path/filepath"
	"testing"

	"cbreak/internal/analysis/load"
	"cbreak/internal/predict"
)

// The static conflict pass and the dynamic trace predictor must agree
// on the mysql LSN cell: the candidate conflicts flags from source
// alone (locked commit-path write vs lock-free insert-path write) is
// the same cell, with the same lock story, that internal/predict
// reports from a recorded trace — and that cbpredict then manufactures
// a breakpoint for.
func TestStaticCandidateMatchesDynamicPrediction(t *testing.T) {
	// Static side: analyze the mysql package and pick out the LSN
	// candidate.
	loader, err := load.New(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir := filepath.Join(loader.ModuleRoot(), "internal", "apps", "mysql")
	units, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading mysql package: %v", err)
	}
	cands := unitCandidates(units)
	var static *Candidate
	for i := range cands {
		if cands[i].Cell == "mysql.lsn" {
			static = &cands[i]
		}
	}
	if static == nil {
		t.Fatal("conflicts found no candidate for mysql.lsn")
	}
	var staticLocked bool
	for _, a := range static.Accesses {
		for _, l := range a.Locks {
			if l == "mysql.catalog" {
				staticLocked = true
			}
		}
	}
	if !staticLocked {
		t.Fatalf("static candidate never sees mysql.catalog held: %+v", static.Accesses)
	}

	// Dynamic side: record the racy workload and predict.
	traceDir := t.TempDir()
	if _, err := predict.RecordRacyMySQL(traceDir); err != nil {
		t.Fatalf("RecordRacyMySQL: %v", err)
	}
	tr, err := predict.Load(traceDir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var dynamic *predict.Prediction
	for _, p := range predict.Predict(tr).PredictedOnly() {
		if p.Var == static.Cell {
			q := p
			dynamic = &q
		}
	}
	if dynamic == nil {
		t.Fatalf("no dynamic prediction for static candidate %s", static.Cell)
	}

	// Same cell, same lock story: the side the predictor saw locked
	// holds mysql.catalog, matching the static locked access; the other
	// side is lock-free, matching the static anchor.
	locks := append(append([]string(nil), dynamic.Locks1...), dynamic.Locks2...)
	var dynLocked bool
	for _, l := range locks {
		if l == "mysql.catalog" {
			dynLocked = true
		}
	}
	if !dynLocked {
		t.Fatalf("dynamic prediction never sees mysql.catalog held: %+v", dynamic)
	}
	if len(dynamic.Locks1) > 0 && len(dynamic.Locks2) > 0 {
		t.Fatalf("dynamic prediction has no lock-free side: %+v", dynamic)
	}
	if len(static.AnchorLocks) != 0 {
		t.Fatalf("static anchor is not the lock-free side: %+v", static)
	}
}
