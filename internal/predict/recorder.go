package predict

import (
	"encoding/json"
	"fmt"
	"sync"

	"cbreak/internal/journal"
	"cbreak/internal/locks"
	"cbreak/internal/memory"
	"cbreak/internal/vclock"
)

// Recorder journals memory and lock events into a trace. It implements
// memory.Tracer and locks.Observer, so attaching is the same Instrument
// dance the dynamic detectors use:
//
//	rec, _ := predict.NewRecorder(dir)
//	sp.Trace(rec)
//	mu.Observe(rec)
//
// The recorder maintains full observed happens-before vector clocks at
// record time (program order, every lock release→acquire edge,
// fork/join), so each journaled event carries the clock of its
// goroutine under the interleaving that actually ran.
type Recorder struct {
	mu     sync.Mutex
	j      *journal.Journal
	seq    uint64
	clocks map[uint64]vclock.VC
	// rel holds the last release clock per lock, the standard
	// vector-clock lock edge.
	rel map[string]vclock.VC
	// forked holds clocks for goroutines that were forked but have not
	// yet produced their first event.
	forked map[uint64]vclock.VC
	err    error
}

// NewRecorder opens (or creates) a trace journal in dir. The journal is
// never fsynced (SyncNone): traces are high-rate and a torn tail only
// shortens the recording.
func NewRecorder(dir string) (*Recorder, error) {
	j, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNone})
	if err != nil {
		return nil, err
	}
	return &Recorder{
		j:      j,
		clocks: make(map[uint64]vclock.VC),
		rel:    make(map[string]vclock.VC),
		forked: make(map[uint64]vclock.VC),
	}, nil
}

// Close flushes and closes the trace journal.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.j.Close(); err != nil {
		return err
	}
	return r.err
}

// clock returns gid's clock, initializing it from a pending fork edge
// (or fresh) on first use. Caller holds r.mu.
func (r *Recorder) clock(gid uint64) vclock.VC {
	c, ok := r.clocks[gid]
	if !ok {
		if f, forked := r.forked[gid]; forked {
			c = f.Clone()
			delete(r.forked, gid)
		} else {
			c = vclock.New()
		}
		r.clocks[gid] = c
	}
	return c
}

// emit ticks gid's clock, stamps the event, and journals it. Caller
// holds r.mu.
func (r *Recorder) emit(ev Event) {
	c := r.clock(ev.Gid)
	c.Tick(ev.Gid)
	r.seq++
	ev.Seq = r.seq
	ev.Clock = c.Clone()
	payload, err := json.Marshal(ev)
	if err == nil {
		_, err = r.j.Append(payload)
	}
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("predict: recording event %d: %w", ev.Seq, err)
	}
}

// OnAccess implements memory.Tracer: one read/write event per cell
// access.
func (r *Recorder) OnAccess(gid uint64, c *memory.Cell, op memory.Op, site string) {
	kind := EvRead
	if op == memory.Write {
		kind = EvWrite
	}
	r.mu.Lock()
	r.emit(Event{Gid: gid, Kind: kind, Obj: c.Name(), Site: site})
	r.mu.Unlock()
}

// BeforeLock implements locks.Observer; acquisition requests are not
// trace events (only completed acquisitions order anything).
func (r *Recorder) BeforeLock(m *locks.Mutex, gid uint64, site string) {}

// AfterLock implements locks.Observer: the acquire joins the lock's
// last release clock (the observed release→acquire edge).
func (r *Recorder) AfterLock(m *locks.Mutex, gid uint64, site string) {
	r.mu.Lock()
	if rel, ok := r.rel[m.Name()]; ok {
		r.clock(gid).Join(rel)
	}
	r.emit(Event{Gid: gid, Kind: EvAcquire, Obj: m.Name(), Site: site})
	r.mu.Unlock()
}

// BeforeUnlock implements locks.Observer: the release publishes the
// goroutine's clock for the next acquirer.
func (r *Recorder) BeforeUnlock(m *locks.Mutex, gid uint64, site string) {
	r.mu.Lock()
	r.emit(Event{Gid: gid, Kind: EvRelease, Obj: m.Name(), Site: site})
	r.rel[m.Name()] = r.clocks[gid].Clone()
	r.mu.Unlock()
}

// Fork records that parent is about to start child: the child's first
// event inherits the parent's clock. Call it before the child runs
// (see ForkTraced for the handshake helper).
func (r *Recorder) Fork(parent, child uint64) {
	r.mu.Lock()
	r.emit(Event{Gid: parent, Kind: EvFork, Child: child})
	r.forked[child] = r.clocks[parent].Clone()
	r.mu.Unlock()
}

// Join records that parent joined child: the parent's clock absorbs
// everything the child did.
func (r *Recorder) Join(parent, child uint64) {
	r.mu.Lock()
	if c, ok := r.clocks[child]; ok {
		r.clock(parent).Join(c)
	}
	r.emit(Event{Gid: parent, Kind: EvJoin, Child: child})
	r.mu.Unlock()
}

// Instrument attaches the recorder to a memory space and a set of
// mutexes in one call, mirroring detect.Detector.Instrument.
func (r *Recorder) Instrument(sp *memory.Space, ms ...*locks.Mutex) {
	if sp != nil {
		sp.Trace(r)
	}
	for _, m := range ms {
		m.Observe(r)
	}
}

// ForkTraced starts f on a new goroutine with a recorded fork edge and
// returns a handle whose Join waits for f and records the join edge.
// The handshake guarantees the fork event lands before any event of
// the child: the child reports its gid and then blocks until the
// parent has journaled the edge.
func ForkTraced(r *Recorder, f func()) *TracedGoroutine {
	parent := locks.GoroutineID()
	gidCh := make(chan uint64)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		gidCh <- locks.GoroutineID()
		<-release
		f()
	}()
	child := <-gidCh
	r.Fork(parent, child)
	close(release)
	return &TracedGoroutine{r: r, parent: parent, child: child, done: done}
}

// TracedGoroutine is a forked goroutine whose lifetime is recorded.
type TracedGoroutine struct {
	r             *Recorder
	parent, child uint64
	done          chan struct{}
}

// Join waits for the goroutine and records the join edge.
func (t *TracedGoroutine) Join() {
	<-t.done
	t.r.Join(t.parent, t.child)
}
