package main

import (
	"errors"
	"testing"

	"cbreak/internal/apps/appkit"
)

// Each checker accepts a correct output and rejects a bad one.

func TestCheckEngineCounters(t *testing.T) {
	good := []bpCount{
		{Name: "on", SetupArrivals: 2, EnabledCalls: 10, Arrivals: 12, LocalFalses: 10},
		{Name: "off", SetupArrivals: 2, Arrivals: 2},
	}
	if err := checkEngineCounters(good); err != nil {
		t.Fatalf("correct counters rejected: %v", err)
	}
	for name, bad := range map[string]bpCount{
		"lost arrival":        {Name: "on", SetupArrivals: 2, EnabledCalls: 10, Arrivals: 11, LocalFalses: 10},
		"disabled counted":    {Name: "off", SetupArrivals: 2, Arrivals: 3, LocalFalses: 1, EnabledCalls: 0},
		"arrival not refined": {Name: "on", SetupArrivals: 2, EnabledCalls: 10, Arrivals: 12, LocalFalses: 9},
	} {
		if err := checkEngineCounters([]bpCount{bad}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckOutcomes(t *testing.T) {
	if err := checkOutcomes(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := checkOutcomes(1, 100); err == nil {
		t.Fatal("an unplanned outcome was accepted")
	}
}

func TestCheckJournal(t *testing.T) {
	good := journalCounts{SinkLen: 7, Arrivals: 5, Replayed: 7, Arrived: 5}
	if err := checkJournal(good); err != nil {
		t.Fatalf("correct journal rejected: %v", err)
	}
	for name, mut := range map[string]func(*journalCounts){
		"sink error":    func(c *journalCounts) { c.SinkErr = errors.New("disk full") },
		"replay short":  func(c *journalCounts) { c.Replayed = 6 },
		"extra record":  func(c *journalCounts) { c.Replayed = 8 },
		"arrival lost":  func(c *journalCounts) { c.Arrived = 4 },
		"arrival extra": func(c *journalCounts) { c.Arrived = 6 },
	} {
		c := good
		mut(&c)
		if err := checkJournal(c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseReply(t *testing.T) {
	if id, err := parseReply("200 id=42 OK"); err != nil || id != 42 {
		t.Fatalf("parseReply = %d, %v", id, err)
	}
	for _, bad := range []string{"", "200 id=42", "200 id= OK", "200 id=x OK", "200 id=0 OK",
		"500 worker 0: buffer overflow", "503 shed", "200 id=4 OK db=ok", " 200 id=4 OK"} {
		if _, err := parseReply(bad); err == nil {
			t.Errorf("malformed reply %q accepted", bad)
		}
	}
}

func TestReplyLogCountsTransportErrors(t *testing.T) {
	var l replyLog
	if !l.record("200 id=1 OK", nil) {
		t.Fatal("good reply rejected")
	}
	if l.record("", errors.New("connection reset")) || l.record("400 parse error", nil) {
		t.Fatal("bad reply accepted")
	}
	if l.bad != 2 || len(l.ids) != 1 || replyErr(&l) == nil {
		t.Fatalf("bad=%d ids=%v", l.bad, l.ids)
	}
}

func TestCheckUniqueIDs(t *testing.T) {
	if err := checkUniqueIDs([]int64{3, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := checkUniqueIDs([]int64{3, 1, 3}); err == nil {
		t.Fatal("a duplicate id was accepted")
	}
}

func TestCheckServed(t *testing.T) {
	if err := checkServed(10, 10, 0); err != nil {
		t.Fatal(err)
	}
	if err := checkServed(11, 10, 0); err == nil {
		t.Error("a reply the clients never saw was accepted")
	}
	if err := checkServed(10, 10, 1); err == nil {
		t.Error("an injected fault was accepted")
	}
}

func TestCheckTrialStatuses(t *testing.T) {
	ok := map[appkit.Status]int64{appkit.Stall: 5, appkit.OK: 1, appkit.LogCorrupt: 2}
	if err := checkTrialStatuses(ok); err != nil {
		t.Fatalf("a missed reproduction must not fail the check: %v", err)
	}
	for _, s := range []appkit.Status{appkit.TrialTimeout, appkit.WorkerCrash} {
		if err := checkTrialStatuses(map[appkit.Status]int64{appkit.Stall: 5, s: 1}); err == nil {
			t.Errorf("%s accepted", s)
		}
	}
}
