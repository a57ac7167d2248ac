// Package httpd models Apache httpd 2.0.45 as evaluated in Table 2 of
// the paper: a multi-worker web server with two reproducible bugs.
//
//   - Log corruption (Apache bug #25520, 1 concurrent breakpoint): the
//     access log's buffered writer claims space with a racy offset
//     read-modify-write; two workers that claim the same offset write
//     their lines over each other, garbling the log.
//
//   - Server crash ("buffer overflow", 3 concurrent breakpoints): a
//     worker validates a response against the shared connection buffer's
//     capacity field while a configuration reload swaps the backing
//     buffer for a smaller one and only then updates the capacity field
//     (the inverted-order bug). The worker's write lands in the shrunken
//     buffer: an overflow that crashes the server. Three breakpoints
//     choreograph the alignment, the swap ordering, and the stale
//     capacity, matching the paper's 3-CBR count.
package httpd

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
	"cbreak/internal/memory"
)

// Breakpoint names for engine statistics.
const (
	BPLogOffset = "httpd.log.cbr1"   // racy log offset claim
	BPAlign     = "httpd.crash.cbr1" // worker check vs reload entry
	BPSwap      = "httpd.crash.cbr2" // backing swap vs backing load
	BPStaleCap  = "httpd.crash.cbr3" // write vs capacity-field update
)

// Request is one incoming request.
type Request struct {
	ID   int
	Path string
	// Big requests produce large responses (the overflow payload).
	Big bool
}

// AccessLog is the buffered access log with the racy offset claim.
type AccessLog struct {
	buf  []byte
	off  *memory.Cell
	wrMu *locks.Mutex // guards the byte copy itself (the bug is the offset)
	cfg  *Config
}

// NewAccessLog returns a log buffer of the given size.
func NewAccessLog(size int, cfg *Config) *AccessLog {
	return &AccessLog{
		buf:  make([]byte, size),
		off:  memory.NewCell(nil, "httpd.log.off", 0),
		wrMu: locks.NewMutex("httpd.log.write"),
		cfg:  cfg,
	}
}

// Append claims space with a racy read-modify-write of the offset and
// copies the line in. Two workers claiming the same offset corrupt each
// other's lines.
func (l *AccessLog) Append(line string, worker int) {
	off := l.off.Load("httpd:log.off.read")
	if l.cfg.bugCorrupt() {
		l.cfg.bpLogOffset().Trigger(core.NewConflictTrigger(BPLogOffset, l.off), worker == 0,
			core.Options{Timeout: l.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore conflicts intentional httpd race: the unguarded offset advance IS the reproduced log-corruption bug
	l.off.Store("httpd:log.off.write", off+int64(len(line)))
	l.wrMu.Lock()
	if int(off)+len(line) <= len(l.buf) {
		copy(l.buf[off:], line)
	}
	l.wrMu.Unlock()
}

// Lines parses the log buffer back into lines and reports how many are
// intact (start with "id=" and end with a matching terminator).
func (l *AccessLog) Lines() (intact int, raw string) {
	l.wrMu.Lock()
	end := l.off.Load("httpd:log.scan")
	if end > int64(len(l.buf)) {
		end = int64(len(l.buf))
	}
	raw = string(l.buf[:end])
	l.wrMu.Unlock()
	for _, line := range strings.Split(raw, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "id=") && strings.HasSuffix(line, "OK") {
			intact++
		}
	}
	return intact, raw
}

// ConnBuf is the shared connection output buffer whose capacity field
// and backing array are updated in the wrong order during reloads.
type ConnBuf struct {
	capacity *memory.Cell
	backing  *memory.Ref[[]byte]
}

// NewConnBuf returns a buffer with the given capacity.
func NewConnBuf(n int) *ConnBuf {
	b := make([]byte, n)
	return &ConnBuf{
		capacity: memory.NewCell(nil, "httpd.conn.cap", int64(n)),
		backing:  memory.NewRef(nil, "httpd.conn.backing", &b),
	}
}

// Server is the worker-pool web server.
type Server struct {
	log    *AccessLog
	conn   *ConnBuf
	served *memory.Cell
	cfg    *Config
}

// NewServer returns a server with a 64 KiB log and an 8 KiB connection
// buffer.
func NewServer(cfg *Config) *Server {
	return &Server{
		log:    NewAccessLog(64<<10, cfg),
		conn:   NewConnBuf(8 << 10),
		served: memory.NewCell(nil, "httpd.served", 0),
		cfg:    cfg,
	}
}

// Handle serves one request: build the response, validate it against the
// connection buffer capacity, and write it.
func (s *Server) Handle(req Request, worker int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("worker %d: %v", worker, p)
		}
	}()
	size := 512
	if req.Big {
		size = 6 << 10
	}
	resp := strings.Repeat("x", size)

	// Capacity check against the (possibly stale) capacity field.
	capNow := s.conn.capacity.Load("httpd:cap.check")
	if s.cfg.bugCrash() && req.Big {
		s.cfg.bpAlign().Trigger(core.NewConflictTrigger(BPAlign, s.conn), true,
			core.Options{Timeout: s.cfg.Timeout, Bound: 1})
	}
	if int64(len(resp)) > capNow {
		resp = resp[:capNow]
	}
	if s.cfg.bugCrash() && req.Big {
		// cbr2 second side: the reload's backing swap is ordered into
		// the window between the capacity check and the write.
		s.cfg.bpSwap().Trigger(core.NewConflictTrigger(BPSwap, s.conn.backing), false,
			core.Options{Timeout: s.cfg.Timeout, Bound: 1})
	}
	backing := s.conn.backing.Load("httpd:backing.load")
	if len(resp) > len(*backing) {
		// The unchecked memcpy of the original bug: model the overflow
		// as the crash it caused.
		panic(fmt.Sprintf("buffer overflow: response %d bytes into %d-byte buffer",
			len(resp), len(*backing)))
	}
	copy(*backing, resp)
	if s.cfg.bugCrash() && req.Big {
		// cbr3: order this write before the reload's capacity-field
		// update, keeping the stale capacity in force.
		s.cfg.bpStaleCap().Trigger(core.NewConflictTrigger(BPStaleCap, s.conn.capacity), true,
			core.Options{Timeout: s.cfg.Timeout, Bound: 1})
	}
	s.served.AtomicAdd("httpd:served", 1)
	s.log.Append(fmt.Sprintf("id=%d path=%s status=200 OK\n", req.ID, req.Path), worker)
	return nil
}

// Reload swaps the connection buffer for a smaller one and only
// afterwards updates the capacity field — the inverted order that opens
// the overflow window.
func (s *Server) Reload(newSize int) {
	if s.cfg.bugCrash() {
		s.cfg.bpAlign().Trigger(core.NewConflictTrigger(BPAlign, s.conn), false,
			core.Options{Timeout: s.cfg.Timeout, Bound: 1})
	}
	nb := make([]byte, newSize)
	swap := func() { s.conn.backing.Store("httpd:backing.swap", &nb) }
	if s.cfg.bugCrash() {
		s.cfg.bpSwap().TriggerAnd(core.NewConflictTrigger(BPSwap, s.conn.backing), true,
			core.Options{Timeout: s.cfg.Timeout, Bound: 1}, swap)
		// cbr3 second side: the capacity update waits for the worker's
		// write.
		s.cfg.bpStaleCap().Trigger(core.NewConflictTrigger(BPStaleCap, s.conn.capacity), false,
			core.Options{Timeout: s.cfg.Timeout, Bound: 1})
	} else {
		swap()
	}
	s.conn.capacity.Store("httpd:cap.update", int64(newSize))
}

// Bug selects which Table 2 bug a run exercises.
type Bug int

// The httpd bugs of Table 2.
const (
	LogCorruption Bug = iota
	ServerCrash
)

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Bug        Bug
	Breakpoint bool
	Timeout    time.Duration

	// bps caches the run's breakpoint handles, resolved once in Run so
	// the trigger sites skip the per-call registry lookup. Left nil when
	// a Config is built directly (tests); the accessors then resolve per
	// call rather than populating the cache lazily, because httpd's
	// workers race by design and a lazy write would add an unrelated
	// data race on the Config itself.
	bps *bpHandles
}

// numRequests is the client load.
const numRequests = 60

// bpHandles bundles one handle per httpd breakpoint.
type bpHandles struct {
	logOffset, align, swap, staleCap *core.Breakpoint
}

func (c *Config) resolveHandles() {
	c.bps = &bpHandles{
		logOffset: c.Engine.Breakpoint(BPLogOffset),
		align:     c.Engine.Breakpoint(BPAlign),
		swap:      c.Engine.Breakpoint(BPSwap),
		staleCap:  c.Engine.Breakpoint(BPStaleCap),
	}
}

func (c *Config) bpLogOffset() *core.Breakpoint {
	if h := c.bps; h != nil {
		return h.logOffset
	}
	return c.Engine.Breakpoint(BPLogOffset)
}

func (c *Config) bpAlign() *core.Breakpoint {
	if h := c.bps; h != nil {
		return h.align
	}
	return c.Engine.Breakpoint(BPAlign)
}

func (c *Config) bpSwap() *core.Breakpoint {
	if h := c.bps; h != nil {
		return h.swap
	}
	return c.Engine.Breakpoint(BPSwap)
}

func (c *Config) bpStaleCap() *core.Breakpoint {
	if h := c.bps; h != nil {
		return h.staleCap
	}
	return c.Engine.Breakpoint(BPStaleCap)
}

func (c *Config) bugCorrupt() bool {
	return c != nil && c.Breakpoint && c.Bug == LogCorruption
}

func (c *Config) bugCrash() bool {
	return c != nil && c.Breakpoint && c.Bug == ServerCrash
}

// Run drives the server with two request workers (and, for the crash
// bug, a concurrent configuration reload) and classifies the outcome.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	cfg.resolveHandles()
	srv := NewServer(&cfg)
	res := appkit.RunWithDeadline(60*time.Second, func() appkit.Result {
		errCh := make(chan error, 2)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < numRequests/2; i++ {
					req := Request{ID: w*1000 + i, Path: fmt.Sprintf("/page/%d", i),
						Big: cfg.Bug == ServerCrash && i == 5}
					if err := srv.Handle(req, w); err != nil {
						errCh <- err
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}(w)
		}
		if cfg.Bug == ServerCrash {
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Millisecond)
				srv.Reload(1 << 10)
			}()
		}
		wg.Wait()
		select {
		case err := <-errCh:
			return appkit.Result{Status: appkit.Crash, Detail: err.Error()}
		default:
		}
		if cfg.Bug == LogCorruption {
			intact, _ := srv.log.Lines()
			if got := srv.served.Load("check"); intact < int(got) {
				return appkit.Result{Status: appkit.LogCorrupt,
					Detail: fmt.Sprintf("only %d/%d log lines intact", intact, got)}
			}
		}
		return appkit.Result{Status: appkit.OK}
	})
	switch cfg.Bug {
	case LogCorruption:
		res.BPHit = cfg.Engine.Stats(BPLogOffset).Hits() > 0
	default:
		res.BPHit = cfg.Engine.Stats(BPSwap).Hits() > 0
	}
	return res
}
