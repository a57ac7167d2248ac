package waitgraph

import (
	"sync"
	"sync/atomic"
	"time"

	"cbreak/internal/core"
	"cbreak/internal/guard"
	"cbreak/internal/locks"
	"cbreak/internal/telemetry"
)

// Config tunes a Supervisor. The zero value is usable: stall scans every
// 5ms, recovery enabled.
type Config struct {
	// Interval is the period of the postponement-stall scan, which
	// looks only while the engine has a postponed goroutine. 0 defaults
	// to 5ms. Deadlock confirmation does not wait for it: the locks
	// registry hands the supervisor each lock cycle as it closes.
	Interval time.Duration
}

// confirmAfter is how many consecutive scans must observe a
// postponement stall before the supervisor breaks it — the debounce
// against acting on a torn sample (a scan reads the engine's shards
// and the locks registry under different locks).
const confirmAfter = 2

// Supervisor watches the wait graph on behalf of one engine. The locks
// registry hands it every lock cycle that closes while it runs, and it
// confirms each at once, on its own goroutine, as a deadlock: a
// deadlock-confirmed incident, a report and the Confirmed latch, so a
// harness can classify the trial immediately instead of waiting out
// its deadline. While the engine has a postponed goroutine, a ticker
// also scans for postponement stalls, and breaks a stall seen in
// confirmAfter consecutive scans by force-releasing the postponed
// victim through the engine's shared release path (recorded as a
// cycle-break incident).
//
// A cycle that closed before Start, or closes after Stop, is never
// delivered: sequential in-process trials deliberately leak deadlocked
// goroutines, and a supervisor must not confirm a previous trial's
// corpse.
type Supervisor struct {
	e   *core.Engine
	cfg Config

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	reports []Report
	pending map[string]*sighting

	confirmed     chan struct{}
	confirmedOnce sync.Once

	scans atomic.Int64
}

// sighting tracks how many consecutive scans observed one stall.
type sighting struct {
	streak   int
	lastScan int64
}

// New returns a supervisor for the engine. Start it with Start.
func New(e *core.Engine, cfg Config) *Supervisor {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Millisecond
	}
	return &Supervisor{
		e:         e,
		cfg:       cfg,
		pending:   map[string]*sighting{},
		confirmed: make(chan struct{}),
	}
}

// Start registers for the lock cycles that close from now on and
// launches the supervisor's goroutine. Idempotent while running; stop
// with Stop.
func (s *Supervisor) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	w := locks.WatchCycles()
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	go func() {
		defer close(done)
		defer w.Stop()
		ticker := time.NewTicker(s.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-w.Ready():
				for _, c := range w.Take() {
					s.confirm(deadlockReport(c))
				}
			case <-ticker.C:
				s.Scan()
			}
		}
	}()
}

// Stop halts the supervisor and waits for its goroutine to exit; no
// cycle that closes after Stop returns is reported. No-op when not
// running.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Confirmed returns a channel closed on the first confirmed deadlock
// (application-only cycle). Harnesses select on it against the trial's
// own completion to classify deadlocks in milliseconds.
func (s *Supervisor) Confirmed() <-chan struct{} { return s.confirmed }

// Reports returns every confirmed finding so far, in confirmation
// order.
func (s *Supervisor) Reports() []Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Report(nil), s.reports...)
}

// Scans returns how many stall scans have run, including those that
// found nothing postponed; tests use it to wait for the loop to have
// looked at least once.
func (s *Supervisor) Scans() int64 { return s.scans.Load() }

// Scan looks for postponement stalls once, if the engine has a
// postponed goroutine, and breaks those seen in confirmAfter
// consecutive scans. It is the ticker's body, exported so tests can
// drive it synchronously.
func (s *Supervisor) Scan() {
	var found []Report
	if s.e.PostponedTotal() > 0 {
		found = postponeStalls(s.e.PostponedWaiters())
	}
	scan := s.scans.Add(1)

	s.mu.Lock()
	var confirmed []Report
	for _, r := range found {
		sig := r.signature()
		sg := s.pending[sig]
		if sg == nil || sg.lastScan != scan-1 {
			sg = &sighting{}
			s.pending[sig] = sg
		}
		sg.streak++
		sg.lastScan = scan
		// Breaking a stall takes its victim out of the postponed set
		// before act returns, so the next scan cannot sight it again;
		// the same stall, postponed anew, is broken anew.
		if sg.streak >= confirmAfter {
			delete(s.pending, sig)
			confirmed = append(confirmed, r)
		}
	}
	// Drop stale sightings so the pending map cannot grow without
	// bound across a long campaign.
	for sig, sg := range s.pending {
		if sg.lastScan != scan {
			delete(s.pending, sig)
		}
	}
	s.reports = append(s.reports, confirmed...)
	s.mu.Unlock()

	for _, r := range confirmed {
		s.act(r)
	}
}

// confirm records a deadlock the locks registry delivered and acts on
// it. The registry delivers each cycle once, so it needs no debounce.
func (s *Supervisor) confirm(r Report) {
	s.mu.Lock()
	s.reports = append(s.reports, r)
	s.mu.Unlock()
	s.act(r)
}

// act performs the confirmed finding's recovery/diagnosis. Called off
// the supervisor mutex, so bus subscribers may call back into the
// supervisor.
func (s *Supervisor) act(r Report) {
	switch r.Kind {
	case ReportPostponeStall:
		// Forced release is idempotent against Reset, an admin release
		// and a natural timeout: if the victim is already gone there is
		// nothing to break and no incident is recorded by the release
		// itself.
		s.e.ForceRelease(r.Breakpoints[0], r.Victim, guard.KindCycleBreak,
			"wait-graph cycle broken: "+r.Desc)
	case ReportDeadlock:
		s.e.RecordIncident(guard.KindDeadlockConfirmed, "", r.GIDs[0],
			"wait-graph deadlock confirmed: "+r.Desc)
		s.confirmedOnce.Do(func() { close(s.confirmed) })
	}
}

// RegisterMetrics registers the supervisor's catalog collector on reg:
// the scan counter. Confirmed findings are counted as the incidents act
// records (cbreak_incidents_total, kinds deadlock-confirmed and
// cycle-break).
func (s *Supervisor) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCollector(func(emit func(telemetry.Sample)) {
		emit(telemetry.Sample{Desc: telemetry.DescWaitgraphScans,
			Value: float64(s.Scans())})
	})
}
