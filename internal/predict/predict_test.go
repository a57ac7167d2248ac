package predict

import (
	"path/filepath"
	"testing"
	"time"

	"cbreak/internal/core"
	"cbreak/internal/locks"
	"cbreak/internal/memory"
)

// record drives f against a fresh recorder and loads the trace back.
func record(t *testing.T, f func(r *Recorder)) *Trace {
	t.Helper()
	dir := t.TempDir()
	r, err := NewRecorder(dir)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	f(r)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	tr, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return tr
}

func TestRecorderRoundTrip(t *testing.T) {
	c := memory.NewCell(nil, "x", 0)
	m := locks.NewMutex("L")
	tr := record(t, func(r *Recorder) {
		r.Fork(1, 2)
		r.AfterLock(m, 1, "s1")
		r.OnAccess(1, c, memory.Write, "s1")
		r.BeforeUnlock(m, 1, "s1")
		r.OnAccess(2, c, memory.Read, "s2")
		r.Join(1, 2)
	})
	if got := len(tr.Events); got != 6 {
		t.Fatalf("trace length = %d, want 6", got)
	}
	kinds := []EventKind{EvFork, EvAcquire, EvWrite, EvRelease, EvRead, EvJoin}
	for i, ev := range tr.Events {
		if ev.Kind != kinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, ev.Kind, kinds[i])
		}
		if len(ev.Clock) == 0 {
			t.Errorf("event %d has empty clock", i)
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
	if gids := tr.Gids(); len(gids) != 2 {
		t.Errorf("gids = %v, want two", gids)
	}
}

// TestPredictDropsNonConflictingLockEdge is the predictor's reason to
// exist: g1 writes x inside L's critical section, g2 enters an EMPTY
// critical section of L and then writes x lock-free. The recorded
// interleaving orders the writes through L's release→acquire edge, but
// the two critical sections share no data, so the closure drops the
// edge and predicts the race FastTrack cannot see.
func TestPredictDropsNonConflictingLockEdge(t *testing.T) {
	x := memory.NewCell(nil, "x", 0)
	m := locks.NewMutex("L")
	tr := record(t, func(r *Recorder) {
		r.AfterLock(m, 1, "a1")
		r.OnAccess(1, x, memory.Write, "w1")
		r.BeforeUnlock(m, 1, "a1")
		r.AfterLock(m, 2, "a2")
		r.BeforeUnlock(m, 2, "a2")
		r.OnAccess(2, x, memory.Write, "w2")
	})
	res := Predict(tr)
	if len(res.Predictions) != 1 {
		t.Fatalf("predictions = %v, want exactly one", res.Predictions)
	}
	p := res.Predictions[0]
	if p.Var != "x" || p.Site1 != "w1" || p.Site2 != "w2" {
		t.Errorf("unexpected prediction %+v", p)
	}
	if p.Observed {
		t.Errorf("prediction marked observed; the recorded run ordered it")
	}
	if oc := CrossCheck(tr, res); !oc.Ok() {
		t.Errorf("oracle: %v", oc.Err())
	}
}

// TestPredictKeepsConflictingLockEdge: when g2's critical section reads
// x (conflicting with g1's write), the release→acquire edge stays, so
// g2's later lock-free write is ordered after g1's — nothing predicted.
func TestPredictKeepsConflictingLockEdge(t *testing.T) {
	x := memory.NewCell(nil, "x", 0)
	m := locks.NewMutex("L")
	tr := record(t, func(r *Recorder) {
		r.AfterLock(m, 1, "a1")
		r.OnAccess(1, x, memory.Write, "w1")
		r.BeforeUnlock(m, 1, "a1")
		r.AfterLock(m, 2, "a2")
		r.OnAccess(2, x, memory.Read, "r2")
		r.BeforeUnlock(m, 2, "a2")
		r.OnAccess(2, x, memory.Write, "w2")
	})
	res := Predict(tr)
	if len(res.Predictions) != 0 {
		t.Fatalf("predictions = %v, want none", res.Predictions)
	}
}

// TestPredictSharedLockset: both writes hold L, so however the closure
// orders them they are never racy.
func TestPredictSharedLockset(t *testing.T) {
	x := memory.NewCell(nil, "x", 0)
	m := locks.NewMutex("L")
	tr := record(t, func(r *Recorder) {
		r.AfterLock(m, 1, "a1")
		r.OnAccess(1, x, memory.Write, "w1")
		r.BeforeUnlock(m, 1, "a1")
		r.AfterLock(m, 2, "a2")
		r.OnAccess(2, x, memory.Write, "w2")
		r.BeforeUnlock(m, 2, "a2")
	})
	if res := Predict(tr); len(res.Predictions) != 0 {
		t.Fatalf("predictions = %v, want none", res.Predictions)
	}
}

// TestPredictForkJoinOrders: fork/join edges are real synchronization
// the closure must keep.
func TestPredictForkJoinOrders(t *testing.T) {
	x := memory.NewCell(nil, "x", 0)
	tr := record(t, func(r *Recorder) {
		r.OnAccess(1, x, memory.Write, "w1")
		r.Fork(1, 2)
		r.OnAccess(2, x, memory.Write, "w2")
		r.Join(1, 2)
		r.OnAccess(1, x, memory.Write, "w3")
	})
	if res := Predict(tr); len(res.Predictions) != 0 {
		t.Fatalf("predictions = %v, want none", res.Predictions)
	}
}

// TestPredictObservedRace: two unsynchronized writes are unordered
// under the full observed relation too — predicted AND observed, and
// FastTrack's replayed report must match it (oracle soundness).
func TestPredictObservedRace(t *testing.T) {
	x := memory.NewCell(nil, "x", 0)
	tr := record(t, func(r *Recorder) {
		r.OnAccess(1, x, memory.Write, "w1")
		r.OnAccess(2, x, memory.Write, "w2")
	})
	res := Predict(tr)
	if len(res.Predictions) != 1 || !res.Predictions[0].Observed {
		t.Fatalf("predictions = %v, want one observed race", res.Predictions)
	}
	if got := res.PredictedOnly(); len(got) != 0 {
		t.Errorf("PredictedOnly = %v, want none", got)
	}
	oc := CrossCheck(tr, res)
	if !oc.Ok() {
		t.Fatalf("oracle: %v", oc.Err())
	}
	if len(oc.ObservedRaces) == 0 {
		t.Errorf("replayed FastTrack saw no race; expected one")
	}
}

func TestMySQLRacyTracePredictsLSN(t *testing.T) {
	dir := t.TempDir()
	n, err := RecordRacyMySQL(dir)
	if err != nil {
		t.Fatalf("RecordRacyMySQL: %v", err)
	}
	if n == 0 {
		t.Fatal("no events recorded")
	}
	tr, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res := Predict(tr)
	var hit *Prediction
	for i := range res.Predictions {
		if res.Predictions[i].Var == "mysql.lsn" {
			hit = &res.Predictions[i]
		}
	}
	if hit == nil {
		t.Fatalf("no prediction on mysql.lsn; got:\n%s", FormatAll(res.Predictions))
	}
	if hit.Observed {
		t.Errorf("mysql.lsn race marked observed; the recorded run ordered it via the catalog lock")
	}
	if hit.Site1 != "mysql:commit.lsn" || hit.Site2 != "mysql:lsn" {
		t.Errorf("sites = %q/%q, want mysql:commit.lsn/mysql:lsn", hit.Site1, hit.Site2)
	}
	if oc := CrossCheck(tr, res); !oc.Ok() {
		t.Errorf("oracle: %v", oc.Err())
	}
}

func TestMySQLControlTracePredictsNothing(t *testing.T) {
	dir := t.TempDir()
	if _, err := RecordSyncedMySQL(dir); err != nil {
		t.Fatalf("RecordSyncedMySQL: %v", err)
	}
	tr, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res := Predict(tr)
	if len(res.Predictions) != 0 {
		t.Fatalf("control trace predicted races:\n%s", FormatAll(res.Predictions))
	}
	if oc := CrossCheck(tr, res); !oc.Ok() {
		t.Errorf("oracle: %v", oc.Err())
	}
}

func TestCompileAndVerifyMySQL(t *testing.T) {
	dir := t.TempDir()
	if _, err := RecordRacyMySQL(dir); err != nil {
		t.Fatalf("RecordRacyMySQL: %v", err)
	}
	tr, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	preds := Predict(tr).PredictedOnly()
	if len(preds) == 0 {
		t.Fatal("no predicted-only races to compile")
	}
	plans := Compile(preds, 5*time.Second)
	path := filepath.Join(t.TempDir(), "plans.json")
	if err := WritePlans(path, plans); err != nil {
		t.Fatalf("WritePlans: %v", err)
	}
	out := VerifyMySQL(core.NewEngine(), plans)
	if out.Hits == 0 {
		t.Fatalf("manufactured trigger never fired: %+v", out)
	}
	if !out.Result.BPHit {
		t.Errorf("Result.BPHit = false with %d hits", out.Hits)
	}
	var snapHits int64
	for _, s := range out.Stats {
		snapHits += s.Hits
	}
	if snapHits == 0 {
		t.Errorf("engine snapshots carry no hits: %+v", out.Stats)
	}
}
