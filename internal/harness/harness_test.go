package harness

import (
	"strings"
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
)

func fakeRun(status appkit.Status, hit bool, d time.Duration) RunFunc {
	return func(e *core.Engine, bp bool, to time.Duration) appkit.Result {
		return appkit.Result{Status: status, BPHit: hit, Elapsed: d}
	}
}

func TestMeasureAggregates(t *testing.T) {
	m := Measure(4, true, time.Millisecond, fakeRun(appkit.Stall, true, 10*time.Millisecond))
	if m.Runs != 4 || m.Buggy != 4 || m.BPHits != 4 {
		t.Fatalf("m = %+v", m)
	}
	if m.Probability() != 1 || m.HitRate() != 1 {
		t.Fatalf("prob=%v hit=%v", m.Probability(), m.HitRate())
	}
	if m.MeanTimeToError != 10*time.Millisecond {
		t.Fatalf("MTTE = %v", m.MeanTimeToError)
	}
	if m.DominantError() != "stall" {
		t.Fatalf("DominantError = %q", m.DominantError())
	}
}

func TestMeasureOKRuns(t *testing.T) {
	m := Measure(3, false, time.Millisecond, fakeRun(appkit.OK, false, time.Millisecond))
	if m.Buggy != 0 || m.Probability() != 0 || m.DominantError() != "" {
		t.Fatalf("m = %+v", m)
	}
	if m.MeanTimeToError != 0 {
		t.Fatalf("MTTE for clean runs = %v", m.MeanTimeToError)
	}
}

func TestOverhead(t *testing.T) {
	if got := Overhead(100*time.Millisecond, 150*time.Millisecond); got != 50 {
		t.Fatalf("Overhead = %v", got)
	}
	if got := Overhead(0, time.Second); got != 0 {
		t.Fatalf("Overhead with zero base = %v", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{
		Title:   "demo",
		Headers: []string{"A", "Bee"},
		Rows:    [][]string{{"x", "y"}, {"longer", "z"}},
	}
	out := tb.Render()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "longer") {
		t.Fatalf("render:\n%s", out)
	}
	// Title, header, separator, and two data rows.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestTable1RowsComplete(t *testing.T) {
	// 33 rows: 31 distinct breakpoints plus the two pause-time repeat
	// rows (hedc race1 and swing deadlock1 appear at two waits), as in
	// the paper's table.
	rows := Table1Rows()
	if len(rows) != 33 {
		t.Fatalf("Table 1 rows = %d, want 33", len(rows))
	}
	benchmarks := map[string]bool{}
	for _, r := range rows {
		benchmarks[r.Benchmark] = true
		if r.Run == nil {
			t.Fatalf("row %s/%s has no runner", r.Benchmark, r.BugLabel)
		}
	}
	for _, want := range []string{"cache4j", "hedc", "jigsaw", "log4j", "logging", "lucene",
		"moldyn", "montecarlo", "pool", "raytracer", "stringbuffer", "swing",
		"synchronizedList", "synchronizedMap", "synchronizedSet"} {
		if !benchmarks[want] {
			t.Errorf("benchmark %s missing from Table 1", want)
		}
	}
}

func TestTable2RowsComplete(t *testing.T) {
	rows := Table2Rows()
	if len(rows) != 7 {
		t.Fatalf("Table 2 rows = %d, want 7", len(rows))
	}
	totalCBRs := 0
	for _, r := range rows {
		totalCBRs += r.CBRs
	}
	if totalCBRs != 13 {
		t.Fatalf("total CBRs = %d, want 13 (2+1+3+2+1+3+1)", totalCBRs)
	}
}

// TestSmokeSmallTables runs each generator with a tiny run count to keep
// the suite fast while still exercising every measurement path
// end-to-end.
func TestSmokeSmallTables(t *testing.T) {
	if testing.Short() {
		t.Skip("table smoke test is slow")
	}
	t2 := Table2(1, InProcess(nil, 0, 0))
	if len(t2.Rows) != 7 {
		t.Fatalf("Table2 rows = %d", len(t2.Rows))
	}
	for _, row := range t2.Rows {
		if row[4] != "1/1" {
			t.Errorf("Table2 %s did not reproduce: %v", row[0], row)
		}
	}
	model := ModelTable(2000, 2, InProcess(nil, 0, 0))
	if len(model.Rows) != 10 {
		t.Fatalf("ModelTable rows = %d", len(model.Rows))
	}
	out := model.Render()
	if !strings.Contains(out, "improvement factor") {
		t.Fatalf("model table:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{
		Headers: []string{"A", "B"},
		Rows:    [][]string{{"plain", `quote"y`}, {"comma,cell", "z"}},
	}
	got := tb.CSV()
	want := "A,B\nplain,\"quote\"\"y\"\n\"comma,cell\",z\n"
	if got != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", got, want)
	}
}
