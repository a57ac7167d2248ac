package sink

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cbreak/internal/core"
	"cbreak/internal/guard"
	"cbreak/internal/journal"
)

// TestPayloadBytesGolden pins the journaled bytes of one event and one
// incident: journals written before the sink took its record shape from
// the telemetry package hold exactly these payloads.
func TestPayloadBytesGolden(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sink")
	s, err := Open(dir, journal.SyncEachRecord)
	if err != nil {
		t.Fatal(err)
	}
	when := time.Date(2024, 1, 2, 3, 4, 5, 6, time.UTC)
	s.RecordEvent(core.Event{Seq: 7, When: when, Kind: core.EventHit, Breakpoint: "bp", GID: 42, First: true})
	s.RecordIncident(guard.Incident{When: when, Kind: guard.KindPanic, Breakpoint: "bp", GID: 9, Detail: "absorbed: boom"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"kind":"engine-event","seq":7,"when":"2024-01-02T03:04:05.000000006Z","event":"hit","breakpoint":"bp","gid":42,"first":true}`,
		`{"kind":"guard-incident","when":"2024-01-02T03:04:05.000000006Z","incident":"panic","breakpoint":"bp","gid":9,"detail":"absorbed: boom"}`,
	}
	var got []string
	if _, err := journal.Replay(dir, func(_ uint64, payload []byte) error {
		got = append(got, string(payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("payloads = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("payload %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// TestEngineTeeRoundTrip drives a real engine with the sink attached:
// a breakpoint rendezvous plus an external incident must land in the
// journal and replay typed.
func TestEngineTeeRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sink")
	s, err := Open(dir, journal.SyncEachRecord)
	if err != nil {
		t.Fatal(err)
	}

	e := core.NewEngine()
	e.SetDurableSink(s)
	if !e.DurableSinkInstalled() {
		t.Fatal("sink not installed")
	}
	obj := new(int)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); e.TriggerHere(core.NewConflictTrigger("sink-bp", obj), true, core.Options{}) }()
	go func() { defer wg.Done(); e.TriggerHere(core.NewConflictTrigger("sink-bp", obj), false, core.Options{}) }()
	wg.Wait()
	e.RecordIncident(guard.KindPanic, "sink-bp", 42, "absorbed: boom")
	if err := s.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var events, incidents, hits int
	if _, err := Replay(dir, func(en Entry) error {
		switch {
		case en.Event != nil:
			events++
			if en.Event.Breakpoint != "sink-bp" {
				t.Fatalf("event breakpoint = %q", en.Event.Breakpoint)
			}
			if en.Event.Event == "hit" {
				hits++
			}
		case en.Incident != nil:
			incidents++
			if en.Incident.Incident != "panic" || en.Incident.GID != 42 || en.Incident.Detail != "absorbed: boom" {
				t.Fatalf("incident = %+v", *en.Incident)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A rendezvous logs both arrivals, the postponement, and the hit.
	if events < 4 || hits < 1 {
		t.Fatalf("replayed %d events (%d hits)", events, hits)
	}
	if incidents != 1 {
		t.Fatalf("replayed %d incidents, want 1", incidents)
	}
}

// TestSinkDetached pins that removing the sink stops the tee without
// touching engine behavior.
// TestSyncFlushesWithoutClose is the drain-time regression test: a
// sink on the interval group-commit policy must expose every record
// already appended — to a concurrent read-only Replay and to fsync —
// after Sync(), with the journal still open and appendable. cbserverd
// calls exactly this at the top of its SIGTERM drain, before the
// admin→proxy→app teardown, so a kill during the drain bound cannot
// lose buffered telemetry.
func TestSyncFlushesWithoutClose(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sink")
	s, err := Open(dir, journal.SyncInterval)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := core.NewEngine()
	e.SetDurableSink(s)
	for i := 0; i < 10; i++ {
		e.RecordIncident(guard.KindStall, "bp", uint64(i), "pre-drain")
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	var n uint64
	if _, err := Replay(dir, func(Entry) error { n++; return nil }); err != nil {
		t.Fatalf("replay while open: %v", err)
	}
	if n != 10 {
		t.Fatalf("replay after Sync sees %d records, want 10", n)
	}
	// The journal must still accept appends after a drain-time Sync —
	// the drain itself produces incidents that should land too.
	e.RecordIncident(guard.KindStall, "bp", 99, "during-drain")
	if err := s.Err(); err != nil {
		t.Fatalf("append after Sync: %v", err)
	}
	if got := s.Len(); got != 11 {
		t.Fatalf("journal holds %d records, want 11", got)
	}
}

func TestSinkDetached(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sink")
	s, err := Open(dir, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine()
	e.SetDurableSink(s)
	e.RecordIncident(guard.KindStall, "bp", 1, "one")
	e.SetDurableSink(nil)
	if e.DurableSinkInstalled() {
		t.Fatal("sink still installed after nil")
	}
	e.RecordIncident(guard.KindStall, "bp", 2, "two")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var n uint64
	if _, err := Replay(dir, func(Entry) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("journal holds %d records after detach, want 1", n)
	}
	if got := e.IncidentCount(guard.KindStall); got != 2 {
		t.Fatalf("engine incident count = %d, want 2 (detach must not drop in-memory log)", got)
	}
}

// TestReplayWhileEngineAppends replays the sink journal repeatedly
// while a live engine is still appending through it: every snapshot
// must be a clean, typed record prefix (no parse errors, no unknown
// kinds, LSNs dense from 1), and the final post-Close replay must hold
// everything the engine emitted.
func TestReplayWhileEngineAppends(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sink")
	s, err := Open(dir, journal.SyncInterval)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine()
	e.SetDurableSink(s)

	const pairs = 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < pairs; i++ {
			obj := new(int)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				e.TriggerHere(core.NewConflictTrigger("sink.race", obj), true, core.Options{})
			}()
			go func() {
				defer wg.Done()
				e.TriggerHere(core.NewConflictTrigger("sink.race", obj), false, core.Options{})
			}()
			wg.Wait()
			e.RecordIncident(guard.KindStall, "sink.race", 0, "concurrent replay probe")
		}
	}()

	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		var lsn uint64
		if _, err := Replay(dir, func(en Entry) error {
			lsn++
			if en.LSN != lsn {
				t.Fatalf("LSN %d after %d records", en.LSN, lsn-1)
			}
			if (en.Event == nil) == (en.Incident == nil) {
				t.Fatalf("record %d is not exactly one of event/incident: %+v", en.LSN, en)
			}
			return nil
		}); err != nil {
			t.Fatalf("replay against live engine: %v", err)
		}
	}
	<-done
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	events, incidents := 0, 0
	if _, err := Replay(dir, func(en Entry) error {
		if en.Event != nil {
			events++
		} else {
			incidents++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if incidents != pairs {
		t.Fatalf("replayed %d incidents, want %d", incidents, pairs)
	}
	// Each rendezvous logs at least arrived+arrived+hit.
	if events < 3*pairs {
		t.Fatalf("replayed only %d events for %d rendezvous pairs", events, pairs)
	}
}
