package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cbreak/internal/apps/appboot"
	"cbreak/internal/apps/appkit"
	"cbreak/internal/apps/httpd"
	"cbreak/internal/core"
	"cbreak/internal/journal"
	"cbreak/internal/journal/sink"
	"cbreak/internal/netchaos"
	"cbreak/internal/waitgraph"
)

// socket-httpd is cbserverd's non-supervised topology built in this
// process: an engine with a durable sink and a wait-graph supervisor,
// the httpd app with log-corruption armed, and the netchaos proxy in
// front with every fault off. Two closed-loop clients each wait for
// their reply before sending the next request, as cbload's do.
const (
	socketClients = 2
	socketPause   = 50 * time.Millisecond // cbserverd's default pause
	warmupRounds  = 100
)

// replyLog collects every reply the app gives this run's clients.
type replyLog struct {
	mu   sync.Mutex
	ids  []int64
	bad  int64
	errs []string // the first few bad replies or transport errors
}

// record checks one reply and reports whether it was well-formed.
func (l *replyLog) record(reply string, err error) bool {
	var id int64
	if err == nil {
		id, err = parseReply(reply)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.bad++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
		return false
	}
	l.ids = append(l.ids, id)
	return true
}

type socketFixture struct {
	e       *core.Engine
	dir     string
	snk     *sink.Sink
	sup     *waitgraph.Supervisor
	app     *appboot.App
	px      *netchaos.Proxy
	clients []*netchaos.Client // every client that talks to the app
	pages   [socketClients]*appkit.Stream
	replies replyLog
}

func setupSocket(r *run) (fixture, error) {
	f := &socketFixture{}
	if err := f.open(r); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *socketFixture) open(r *run) error {
	appkit.SeedJitter(r.seed)
	f.e = core.NewEngine()
	dir, err := os.MkdirTemp(r.tmp, "journal-")
	if err != nil {
		return err
	}
	f.dir = dir
	if f.snk, err = sink.Open(dir, journal.SyncInterval); err != nil {
		return err
	}
	f.e.SetDurableSink(f.snk)
	f.sup = waitgraph.New(f.e, waitgraph.Config{})
	f.sup.Start()
	if f.app, err = appboot.StartApp(f.e, appboot.Spec{App: "httpd", Bug: "log-corruption", Pause: socketPause}); err != nil {
		return err
	}
	r.listen(f.app.Addr)
	if f.px, err = netchaos.Start(f.app.Addr, netchaos.Config{Seed: appkit.JitterSeed()}); err != nil {
		return err
	}
	r.listen(f.px.Addr())
	for i := range f.pages {
		f.clients = append(f.clients, newLoadClient(f.px.Addr()))
		f.pages[i] = appkit.DeriveStream(r.seed, int64(i+1))
	}
	return f.warmUp()
}

// newLoadClient is a client with cbload's default retry settings.
func newLoadClient(addr string) *netchaos.Client {
	return netchaos.NewClient(netchaos.ClientConfig{Addr: addr, Seed: appkit.JitterSeed(),
		Attempts: 3, AttemptTimeout: time.Second, RequestTimeout: 5 * time.Second})
}

func (f *socketFixture) request(i int) string {
	return fmt.Sprintf("GET /page/%d", f.pages[i].Intn(1<<20))
}

// warmUp sends concurrent request pairs until the log breakpoint has
// been hit; after that its bound leaves one refined arrival per
// request.
func (f *socketFixture) warmUp() error {
	bp := f.e.Stats(httpd.BPLogOffset)
	for round := 0; round < warmupRounds; round++ {
		var wg sync.WaitGroup
		for i := range f.pages {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.replies.record(f.clients[i].Do(f.request(i)))
			}()
		}
		wg.Wait()
		if bp.Hits() > 0 {
			return nil
		}
	}
	return fmt.Errorf("log breakpoint not hit in %d warm-up rounds", warmupRounds)
}

func (f *socketFixture) measure(r *run) error {
	logs := [socketClients]*opLog{newOpLog(sampleCap / 2), newOpLog(sampleCap / 2)}
	var attempted [socketClients]int64
	before := f.e.SnapshotAll()
	served0, conns0, scans0, recs0 := f.app.Served(), f.px.Connections(), f.sup.Scans(), f.snk.Len()
	var wg sync.WaitGroup
	deadline := r.startWindow()
	for i := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				line := f.request(i)
				t0 := time.Now()
				id := r.beginOp(t0)
				reply, err := f.clients[i].Do(line)
				r.endOp(logs[i], "netchaos.client.do", id, t0, time.Since(t0), 1)
				attempted[i]++
				f.replies.record(reply, err)
			}
		}()
	}
	wg.Wait()
	r.endWindow()
	r.merge(logs[0], logs[1])

	r.attempted = attempted[0] + attempted[1]
	r.failed = f.replies.bad
	r.good = r.attempted - r.failed
	var clientOK, retries int64
	for _, c := range f.clients {
		st := c.Stats()
		clientOK += st.OK
		retries += st.Retries
	}
	r.check("replies well-formed", replyErr(&f.replies))
	r.check("request ids unique", checkUniqueIDs(f.replies.ids))
	r.check("served equals received", checkServed(f.app.Served(), clientOK, f.px.TotalFaults()))

	coreLayer(r.layer, statsDelta(before, f.e.SnapshotAll()))
	r.layer["netchaos.connections"] = float64(f.px.Connections() - conns0)
	r.layer["netchaos.faults"] = float64(f.px.TotalFaults())
	r.layer["netchaos.retries"] = float64(retries)
	r.layer["appkit.served"] = float64(f.app.Served() - served0)
	r.layer["appkit.shed"] = float64(f.app.ShedCount())
	r.layer["waitgraph.scans"] = float64(f.sup.Scans() - scans0)
	r.layer["sink.records"] = float64(f.snk.Len() - recs0)
	mb, segs, err := journalSize(f.dir)
	if err != nil {
		return err
	}
	r.layer["journal.mb"] = mb
	r.layer["journal.segments"] = float64(segs)
	return f.checkJournal(r)
}

// checkJournal closes the durable sink and reads its journal back. The
// sink was attached before the app started and the app is idle now,
// so the journal holds every event of the run.
func (f *socketFixture) checkJournal(r *run) error {
	c := journalCounts{SinkErr: f.snk.Err(), SinkLen: f.snk.Len()}
	for _, s := range f.e.SnapshotAll() {
		c.Arrivals += s.Arrivals
	}
	f.e.SetDurableSink(nil)
	err := f.snk.Close()
	f.snk = nil
	if err != nil {
		return fmt.Errorf("closing the sink: %w", err)
	}
	arrived := core.EventArrived.String()
	_, err = sink.Replay(f.dir, func(en sink.Entry) error {
		c.Replayed++
		if en.Event != nil && en.Event.Event == arrived {
			c.Arrived++
		}
		return nil
	})
	if err != nil {
		err = fmt.Errorf("replay: %w", err)
	} else {
		err = checkJournal(c)
	}
	r.check("journal", err)
	return nil
}

func replyErr(l *replyLog) error {
	if l.bad == 0 {
		return nil
	}
	return fmt.Errorf("%d bad replies, first: %s", l.bad, strings.Join(l.errs, "; "))
}

// close tears down in cbserverd's drain order: proxy, app, supervisor,
// sink.
func (f *socketFixture) close() error {
	var errs []error
	if f.px != nil {
		errs = append(errs, f.px.Close())
		f.px = nil
	}
	if f.app != nil {
		errs = append(errs, f.app.Close())
		f.app = nil
	}
	if f.sup != nil {
		f.sup.Stop()
		f.sup = nil
	}
	if f.snk != nil {
		f.e.SetDurableSink(nil)
		errs = append(errs, f.snk.Close())
		f.snk = nil
	}
	if f.dir != "" {
		errs = append(errs, os.RemoveAll(f.dir))
		f.dir = ""
	}
	return errors.Join(errs...)
}

// journalSize returns a journal directory's size in MiB and its
// segment count.
func journalSize(dir string) (float64, int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	var bytes int64
	segs := 0
	for _, en := range ents {
		info, err := en.Info()
		if err != nil {
			return 0, 0, err
		}
		bytes += info.Size()
		if ok, _ := filepath.Match("seg-*.wal", en.Name()); ok {
			segs++
		}
	}
	return float64(bytes) / (1 << 20), segs, nil
}
