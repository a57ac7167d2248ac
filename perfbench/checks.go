package main

import (
	"fmt"
	"strconv"
	"strings"

	"cbreak/internal/apps/appkit"
)

// The output checks assert only what the code under test guarantees.
// They never assert on what the apps get wrong on purpose or by
// capacity: the httpd access log's intact-line count (its 64 KiB
// buffer fills after about 1.8k requests), the httpd log offset and
// the mysql omission/disorder windows (they race without breakpoints
// too), or a reproduction that did not happen (a repro_rate sample,
// not a failure).

// bpCount is one breakpoint's counters for checkEngineCounters.
type bpCount struct {
	Name string
	// Set-up values, read after the first hits and before the window.
	SetupArrivals, SetupLocalFalses int64
	// Timed calls on the breakpoint while it was enabled.
	EnabledCalls int64
	// Values read after the window.
	Arrivals, LocalFalses int64
}

// checkEngineCounters: every timed arrival on an enabled breakpoint is
// counted and rejected by the bound; a disabled breakpoint counts none.
func checkEngineCounters(bps []bpCount) error {
	for _, b := range bps {
		if want := b.SetupArrivals + b.EnabledCalls; b.Arrivals != want {
			return fmt.Errorf("%s: %d arrivals, want %d set-up + %d timed", b.Name, b.Arrivals, b.SetupArrivals, b.EnabledCalls)
		}
		if want := b.SetupLocalFalses + b.EnabledCalls; b.LocalFalses != want {
			return fmt.Errorf("%s: %d local-false outcomes, want %d set-up + %d timed", b.Name, b.LocalFalses, b.SetupLocalFalses, b.EnabledCalls)
		}
	}
	return nil
}

// checkOutcomes: every call returned its planned outcome.
func checkOutcomes(wrong, calls int64) error {
	if wrong != 0 {
		return fmt.Errorf("%d of %d calls returned an unplanned outcome", wrong, calls)
	}
	return nil
}

// journalCounts are socket-httpd's durable-sink figures.
type journalCounts struct {
	SinkErr  error
	SinkLen  uint64 // records the sink accepted
	Arrivals int64  // breakpoint arrivals the engine counted
	Replayed int64  // records sink.Replay yielded
	Arrived  int64  // of which "arrived" engine events
}

// checkJournal: the sink journaled without error, sink.Replay reads
// back every record it accepted, and the synchronous tap journaled one
// "arrived" event per breakpoint arrival.
func checkJournal(c journalCounts) error {
	if c.SinkErr != nil {
		return fmt.Errorf("sink error: %v", c.SinkErr)
	}
	if c.Replayed != int64(c.SinkLen) {
		return fmt.Errorf("replay yielded %d records, the sink accepted %d", c.Replayed, c.SinkLen)
	}
	if c.Arrived != c.Arrivals {
		return fmt.Errorf("journal holds %d arrived events for %d arrivals", c.Arrived, c.Arrivals)
	}
	return nil
}

// parseReply returns the request id of a well-formed "200 id=<n> OK"
// httpd reply.
func parseReply(reply string) (int64, error) {
	rest, ok := strings.CutPrefix(reply, "200 id=")
	if ok {
		var num string
		if num, ok = strings.CutSuffix(rest, " OK"); ok {
			if id, err := strconv.ParseInt(num, 10, 64); err == nil && id > 0 {
				return id, nil
			}
		}
	}
	return 0, fmt.Errorf("malformed reply %q", reply)
}

// checkUniqueIDs: the server assigned every reply its own id.
func checkUniqueIDs(ids []int64) error {
	seen := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return fmt.Errorf("request id %d answered twice", id)
		}
		seen[id] = true
	}
	return nil
}

// checkServed: the server answered exactly the requests the clients
// saw answered, and the proxy injected nothing.
func checkServed(served, clientOK, faults int64) error {
	if served != clientOK {
		return fmt.Errorf("server answered %d requests, clients received %d replies", served, clientOK)
	}
	if faults != 0 {
		return fmt.Errorf("proxy injected %d faults with every fault family off", faults)
	}
	return nil
}

// checkTrialStatuses: no trial ended in an infrastructure status (the
// per-trial deadline or a lost worker). A trial that did not reproduce
// is not a failure.
func checkTrialStatuses(statuses map[appkit.Status]int64) error {
	for s, n := range statuses {
		if s.Infrastructure() && n > 0 {
			return fmt.Errorf("%d trial(s) ended %q", n, s)
		}
	}
	return nil
}
