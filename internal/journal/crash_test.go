package journal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"cbreak/internal/guard/faultinject"
)

// crashWorkload appends records until the journal dies (or the workload
// ends), returning how many appends were acknowledged. It models a real
// writer faithfully: the first error is process death, nothing runs
// after it.
func crashWorkload(dir string, fs FS, records [][]byte) (acked int) {
	j, err := Open(Options{Dir: dir, FS: fs, SegmentBytes: 160})
	if err != nil {
		return 0
	}
	for _, p := range records {
		if _, err := j.Append(p); err != nil {
			break
		}
		acked++
	}
	j.Close()
	return acked
}

// TestKillAnywhereRecovery is the journal half of the issue's recovery
// invariant: for EVERY sync point of a rotating, fsync-per-record
// workload — every file create, write, fsync, rename, and directory
// sync — kill the process there (with and without a torn final write)
// and verify that reopening the directory recovers a clean prefix of
// the appended records that covers at least everything acknowledged,
// and that the journal is immediately writable again.
func TestKillAnywhereRecovery(t *testing.T) {
	records := payloads(25)

	// Dry run: count the workload's sync points.
	probe := faultinject.NewCrashPlan(0)
	dir := filepath.Join(t.TempDir(), "probe")
	if acked := crashWorkload(dir, CrashFS(OSFS(), probe), records); acked != len(records) {
		t.Fatalf("probe run acked %d of %d", acked, len(records))
	}
	total := probe.Count()
	if total < 40 {
		t.Fatalf("only %d sync points; workload too small to be interesting", total)
	}

	for k := 1; k <= total; k++ {
		for _, partial := range []int{-1, 0, 3} {
			name := fmt.Sprintf("die-at-%03d-partial-%d", k, partial)
			t.Run(name, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "j")
				plan := faultinject.NewCrashPlan(k).WithPartialWrite(partial)
				acked := crashWorkload(dir, CrashFS(OSFS(), plan), records)
				if !plan.Crashed() {
					t.Fatalf("plan never fired (k=%d of %d)", k, total)
				}

				// The dead process's directory must recover: a clean
				// prefix, covering every acknowledged record.
				j, err := Open(Options{Dir: dir})
				if err != nil {
					t.Fatalf("recovery failed: %v", err)
				}
				got, _ := collect(t, dir)
				if len(got) < acked {
					t.Fatalf("recovered %d records, but %d were acknowledged durable", len(got), acked)
				}
				if len(got) > len(records) {
					t.Fatalf("recovered %d records from %d appends", len(got), len(records))
				}
				for i := range got {
					if !bytes.Equal(got[i], records[i]) {
						t.Fatalf("record %d = %q, want %q (corrupt record surfaced)", i, got[i], records[i])
					}
				}

				// Life goes on: the reopened journal accepts appends and
				// the new record lands after the recovered prefix.
				if _, err := j.Append([]byte("post-recovery")); err != nil {
					t.Fatalf("append after recovery: %v", err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				again, _ := collect(t, dir)
				if len(again) != len(got)+1 || string(again[len(got)]) != "post-recovery" {
					t.Fatalf("post-recovery append lost: %d vs %d records", len(again), len(got)+1)
				}
			})
		}
	}
}

// TestCrashedJournalIsDead pins the sticky-error semantics the crash
// model relies on: after the fatal sync point, every Append and Sync
// fails with the injected error and no LSN advances.
func TestCrashedJournalIsDead(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "j")
	plan := faultinject.NewCrashPlan(0)
	j, err := Open(Options{Dir: dir, FS: CrashFS(OSFS(), plan)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("alive")); err != nil {
		t.Fatal(err)
	}
	// Arm a fresh fatal point: the very next op dies.
	deadPlan := faultinject.NewCrashPlan(1)
	j.fs = CrashFS(OSFS(), deadPlan)
	j.mu.Lock()
	j.active = crashFile{f: j.active, plan: deadPlan}
	j.mu.Unlock()

	if _, err := j.Append([]byte("dying")); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("fatal append error = %v", err)
	}
	lenAt := j.Len()
	if _, err := j.Append([]byte("dead")); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("post-mortem append error = %v", err)
	}
	if err := j.Sync(); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("post-mortem sync error = %v", err)
	}
	if j.Len() != lenAt {
		t.Fatal("LSN advanced on a dead journal")
	}
	if j.err == nil {
		t.Fatal("sticky error not set")
	}
	j.Close()
}
