package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestEngineHotSmoke runs a one-second engine-hot window end to end:
// the output checks pass, every end-to-end metric is printed non-zero
// and the run leaves no temporary directory behind. (The other
// workloads drive the intentionally racy apps, so they have no test.)
func TestEngineHotSmoke(t *testing.T) {
	w, _ := lookupWorkload("engine-hot")
	dir := t.TempDir()
	r, err := newRun(w, 7, time.Second, false, dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.execute()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v, checks %+v", res, r.checks)
	}
	for _, d := range endToEnd {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || !(m.Value > 0) {
			t.Errorf("metric %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics printed, want exactly the %d end-to-end ones", len(res.Metrics), len(endToEnd))
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp")); !os.IsNotExist(err) {
		t.Errorf("temporary directory left behind (stat: %v)", err)
	}
	var b strings.Builder
	if err := r.writeReport(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"arrivals_per_s", "arrival_ns_p50", "arrival_ns_p99", "setup_s", "peak_rss_mb", "failed_frac"} {
		if !strings.Contains(b.String(), `"name":"`+name+`"`) {
			t.Errorf("report does not name %s", name)
		}
	}
}
