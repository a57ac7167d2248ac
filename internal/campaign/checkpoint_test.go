package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/harness"
	"cbreak/internal/journal"
)

func testRecord(row, trial int) Record {
	return Record{
		Key:      harness.TrialKey{Table: "test", Row: row, Variant: "with"},
		Trial:    trial,
		Seed:     int64(row*100 + trial),
		Attempts: 1,
		Outcome: harness.TrialOutcome{
			Result: appkit.Result{Status: appkit.Stall, Detail: "lost wakeup", Elapsed: 3 * time.Millisecond, BPHit: true},
			BPWait: time.Millisecond,
			Incidents: map[string]int64{
				"force-release": 1,
			},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	cp, err := OpenOptions(path, 7, false, journal.SyncEachRecord)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecord(0, 2)
	if err := cp.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenOptions(path, 7, true, journal.SyncEachRecord)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("Len = %d, want 1", re.Len())
	}
	got, ok := re.Lookup(want.Key, want.Trial)
	if !ok {
		t.Fatal("record not found after resume")
	}
	if got.Seed != want.Seed || got.Attempts != want.Attempts ||
		got.Outcome.Result != want.Outcome.Result ||
		got.Outcome.BPWait != want.Outcome.BPWait ||
		got.Outcome.Incidents["force-release"] != 1 {
		t.Fatalf("resumed record = %+v, want %+v", got, want)
	}
}

func TestCheckpointSeedMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	cp, err := OpenOptions(path, 7, false, journal.SyncEachRecord)
	if err != nil {
		t.Fatal(err)
	}
	cp.Append(testRecord(0, 0))
	cp.Close()

	_, err = OpenOptions(path, 8, true, journal.SyncEachRecord)
	if !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("resume with wrong seed: err = %v, want ErrSeedMismatch", err)
	}
	if !strings.Contains(err.Error(), "seed 7") {
		t.Fatalf("mismatch error should name the original seed: %v", err)
	}
}

// TestCheckpointTornJournalTailTolerated is the journal-era version of
// the crash-mid-write scenario: SIGKILL while a record frame is half
// written. Resume must truncate the torn frame and keep every record
// before it.
func TestCheckpointTornJournalTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	cp, err := OpenOptions(path, 7, false, journal.SyncEachRecord)
	if err != nil {
		t.Fatal(err)
	}
	cp.Append(testRecord(0, 0))
	cp.Append(testRecord(0, 1))
	cp.Close()
	// Tear the tail of the (single) segment: chop 5 bytes off the last
	// frame, as a crash mid-write would.
	segs, err := filepath.Glob(filepath.Join(path, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v err=%v", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	re, err := OpenOptions(path, 7, true, journal.SyncEachRecord)
	if err != nil {
		t.Fatalf("torn journal tail should be tolerated: %v", err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("Len = %d, want the 1 intact record", re.Len())
	}
	if re.Recovery().TruncatedBytes == 0 {
		t.Fatal("recovery info does not report the truncated tail")
	}
	if _, ok := re.Lookup(testRecord(0, 0).Key, 0); !ok {
		t.Fatal("intact record lost with the torn one")
	}
	if _, ok := re.Lookup(testRecord(0, 1).Key, 1); ok {
		t.Fatal("torn record surfaced as complete")
	}
}

// A checkpoint is a journal directory; resuming a plain file at the
// path fails with an error that names it.
func TestCheckpointResumePlainFileFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if err := os.WriteFile(path, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenOptions(path, 7, true, journal.SyncEachRecord)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("resuming a plain file: err = %v, want an error naming %s", err, path)
	}
	// A fresh open replaces it.
	cp, err := OpenOptions(path, 7, false, journal.SyncEachRecord)
	if err != nil {
		t.Fatalf("fresh open over a plain file: %v", err)
	}
	cp.Close()
}

func TestCheckpointResumeMissingPathStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "never-written")
	cp, err := OpenOptions(path, 7, true, journal.SyncEachRecord)
	if err != nil {
		t.Fatalf("resuming a missing checkpoint should start fresh: %v", err)
	}
	defer cp.Close()
	if cp.Len() != 0 {
		t.Fatalf("Len = %d, want 0", cp.Len())
	}
	// The fresh journal must still carry a header so a later resume
	// validates the seed.
	var first []byte
	_, err = journal.Replay(path, func(lsn uint64, p []byte) error {
		if lsn == 1 {
			first = append([]byte(nil), p...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), `"campaign-checkpoint"`) {
		t.Fatalf("fresh journal missing header: %q", first)
	}
}

func TestNilCheckpointIsSafe(t *testing.T) {
	var cp *Checkpoint
	if _, ok := cp.Lookup(harness.TrialKey{}, 0); ok {
		t.Fatal("nil Lookup returned ok")
	}
	if err := cp.Append(Record{}); err != nil {
		t.Fatal(err)
	}
	if cp.Len() != 0 || cp.Close() != nil {
		t.Fatal("nil Len/Close misbehaved")
	}
	if cp.Recovery().Records != 0 {
		t.Fatal("nil Recovery misbehaved")
	}
}
