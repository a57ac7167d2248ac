package netchaos

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a Proxy.
type Config struct {
	// ListenAddr is the proxy's listen address (default "127.0.0.1:0").
	ListenAddr string
	// Seed drives the fault schedule; derive it from the appkit jitter
	// stream (appkit.JitterSeed) so chaos replays under the trial seed.
	Seed int64
	// Faults selects the fault families and rates.
	Faults Faults
	// OnFault, when non-nil, receives every injected fault as it
	// happens. Integrations forward these to the engine's incident log
	// as guard.KindNetFault records. Called from proxy goroutines; must
	// be safe for concurrent use.
	OnFault func(FaultEvent)
}

// dialTimeout bounds the upstream dial.
const dialTimeout = 5 * time.Second

// Proxy is the fault-injecting TCP proxy: it listens on a loopback
// address, forwards every accepted connection to the upstream address,
// and applies the seed-derived fault plan of the connection's accept
// ordinal to the forwarded traffic.
type Proxy struct {
	cfg      Config
	sched    *Schedule
	upstream string
	ln       net.Listener

	ordinal atomic.Int64
	counts  [faultKindCount]atomic.Int64

	mu     sync.Mutex
	active map[*chaosConn]struct{}
	closed bool

	// partitioned latches the moment the partition window opened and
	// the live connection set was dropped.
	partitioned atomic.Bool

	// forcedUntil, when in the future (unix nanos), rejects every new
	// connection — the operator/scenario-driven partition window, as
	// opposed to the seed-scheduled ordinal window.
	forcedUntil atomic.Int64

	wg sync.WaitGroup
}

// Start listens on cfg.ListenAddr (default 127.0.0.1:0) and proxies to
// upstream under cfg.
func Start(upstream string, cfg Config) (*Proxy, error) {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("netchaos: listen: %w", err)
	}
	p := &Proxy{
		cfg:      cfg,
		sched:    NewSchedule(cfg.Seed, cfg.Faults),
		upstream: upstream,
		ln:       ln,
		active:   make(map[*chaosConn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (what clients dial).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Connections returns how many connections the proxy has accepted.
func (p *Proxy) Connections() int64 { return p.ordinal.Load() }

// FaultCount returns how many faults of one kind were injected.
func (p *Proxy) FaultCount(k FaultKind) int64 {
	if k < 0 || k >= faultKindCount {
		return 0
	}
	return p.counts[k].Load()
}

// TotalFaults returns the total injected fault count across all kinds.
func (p *Proxy) TotalFaults() int64 {
	var n int64
	for i := range p.counts {
		n += p.counts[i].Load()
	}
	return n
}

// ForcePartition opens a partition window for the next d: every live
// connection is severed abortively right now and every connection
// accepted before the window closes is severed on accept. Unlike the
// seed-scheduled ordinal window (Faults.PartitionAt), this one is
// driven at runtime — cbserverd's admin API and the scenario harness
// use it to cut the network mid-run without restarting the proxy.
// Returns how many live connections were dropped.
func (p *Proxy) ForcePartition(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	p.forcedUntil.Store(time.Now().Add(d).UnixNano())
	p.mu.Lock()
	conns := make([]*chaosConn, 0, len(p.active))
	for c := range p.active {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.close(true)
	}
	p.fault(0, FaultPartition,
		fmt.Sprintf("forced partition begins for %s: dropped %d live connection(s)", d, len(conns)))
	return len(conns)
}

// forcedPartition reports whether a forced partition window is open.
func (p *Proxy) forcedPartition() bool {
	until := p.forcedUntil.Load()
	return until != 0 && time.Now().UnixNano() < until
}

// Close stops accepting, severs every live connection, and waits for
// the forwarding goroutines to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	}
	p.closed = true
	conns := make([]*chaosConn, 0, len(p.active))
	for c := range p.active {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		c.close(false)
	}
	p.wg.Wait()
	return err
}

// fault counts and reports one injected fault.
func (p *Proxy) fault(conn int, k FaultKind, detail string) {
	if k >= 0 && k < faultKindCount {
		p.counts[k].Add(1)
	}
	if p.cfg.OnFault != nil {
		p.cfg.OnFault(FaultEvent{Conn: conn, Kind: k, Detail: detail})
	}
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ord := int(p.ordinal.Add(1))
		if p.forcedPartition() {
			p.fault(ord, FaultPartition, "connection severed inside forced partition window")
			abortiveClose(client)
			continue
		}
		plan := p.sched.PlanFor(ord)
		if plan.Partitioned {
			p.enterPartition(ord)
			p.fault(ord, FaultPartition, "connection severed inside partition window")
			abortiveClose(client)
			continue
		}
		p.wg.Add(1)
		go p.serve(client, plan)
	}
}

// enterPartition drops every live connection the first time an ordinal
// inside the partition window arrives — a full partition severs
// established flows, not just new ones.
func (p *Proxy) enterPartition(ord int) {
	if !p.partitioned.CompareAndSwap(false, true) {
		return
	}
	p.mu.Lock()
	conns := make([]*chaosConn, 0, len(p.active))
	for c := range p.active {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.close(true)
	}
	p.fault(ord, FaultPartition, fmt.Sprintf("partition begins: dropped %d live connection(s)", len(conns)))
}

// serve dials upstream and pumps both directions under the plan.
func (p *Proxy) serve(client net.Conn, plan ConnPlan) {
	defer p.wg.Done()
	server, err := net.DialTimeout("tcp", p.upstream, dialTimeout)
	if err != nil {
		abortiveClose(client)
		return
	}
	c := &chaosConn{p: p, plan: plan, client: client, server: server}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.close(false)
		return
	}
	p.active[c] = struct{}{}
	p.mu.Unlock()

	var pumps sync.WaitGroup
	pumps.Add(2)
	go func() { defer pumps.Done(); c.pump(client, server, true) }()
	go func() { defer pumps.Done(); c.pump(server, client, false) }()
	pumps.Wait()

	p.mu.Lock()
	delete(p.active, c)
	p.mu.Unlock()
}

// chaosConn is one proxied connection with its fault plan and the
// shared forwarded-byte counter the plan's offsets address.
type chaosConn struct {
	p      *Proxy
	plan   ConnPlan
	client net.Conn
	server net.Conn

	transferred atomic.Int64
	fired       [faultKindCount]atomic.Bool
	closeOnce   sync.Once
}

// faultOnce reports a fault the first time it fires on this connection.
func (c *chaosConn) faultOnce(k FaultKind, detail string) {
	if c.fired[k].CompareAndSwap(false, true) {
		c.p.fault(c.plan.Conn, k, detail)
	}
}

// close severs both sides; abortive forces an RST-style teardown.
func (c *chaosConn) close(abortive bool) {
	c.closeOnce.Do(func() {
		if abortive {
			abortiveClose(c.client)
			abortiveClose(c.server)
			return
		}
		c.client.Close()
		c.server.Close()
	})
}

// abortiveClose closes a TCP connection with zero linger, so the peer
// sees a hard RST instead of an orderly FIN — the shape of a real
// mid-flight connection reset.
func abortiveClose(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}

// pump forwards src→dst under the plan. c2s marks the client→server
// direction (the only one a half-open drop silences). Offsets address
// the connection's cumulative forwarded bytes across both directions,
// so a plan behaves the same whether the protocol is chatty or bulky.
func (c *chaosConn) pump(src, dst net.Conn, c2s bool) {
	buf := make([]byte, 16<<10)
	halfOpen := false
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			base := c.transferred.Add(int64(n)) - int64(n)
			if halfOpen {
				// Silently discard: the direction is dropped but both
				// sockets stay open, so the peer just waits.
				continue
			}
			if c.plan.Latency > 0 {
				c.faultOnce(FaultLatency, fmt.Sprintf("+%s per chunk", c.plan.Latency))
				time.Sleep(c.plan.Latency)
			}
			if off := c.plan.ResetAfter; off >= 0 && base+int64(n) > off {
				keep := off - base
				if keep > 0 {
					c.writeChunk(dst, chunk[:keep])
				}
				c.faultOnce(FaultReset, fmt.Sprintf("abortive reset after %d forwarded bytes", off))
				c.close(true)
				return
			}
			if off := c.plan.TruncateAfter; off >= 0 && base+int64(n) > off {
				keep := off - base
				if keep > 0 {
					c.writeChunk(dst, chunk[:keep])
				}
				c.faultOnce(FaultTruncate, fmt.Sprintf("stream cut mid-chunk at byte %d", off))
				c.close(false)
				return
			}
			if c2s && c.plan.HalfOpenAfter >= 0 && base+int64(n) > c.plan.HalfOpenAfter {
				keep := c.plan.HalfOpenAfter - base
				if keep > 0 {
					c.writeChunk(dst, chunk[:keep])
				}
				c.faultOnce(FaultHalfOpen, fmt.Sprintf("client→server drops silently after byte %d", c.plan.HalfOpenAfter))
				halfOpen = true
				continue
			}
			if err2 := c.writeChunk(dst, chunk); err2 != nil {
				c.close(false)
				return
			}
		}
		if err != nil {
			if halfOpen && isClosedErr(err) {
				return
			}
			c.close(false)
			return
		}
	}
}

// writeChunk forwards one chunk, applying slow-loris trickling and
// bandwidth throttling.
func (c *chaosConn) writeChunk(dst net.Conn, chunk []byte) error {
	if c.plan.SlowChunk > 0 {
		c.faultOnce(FaultSlowLoris, fmt.Sprintf("trickling %dB chunks every %s", c.plan.SlowChunk, c.plan.SlowDelay))
		for len(chunk) > 0 {
			n := c.plan.SlowChunk
			if n > len(chunk) {
				n = len(chunk)
			}
			if _, err := dst.Write(chunk[:n]); err != nil {
				return err
			}
			chunk = chunk[n:]
			if len(chunk) > 0 {
				time.Sleep(c.plan.SlowDelay)
			}
		}
		return nil
	}
	if bps := c.plan.ThrottleBps; bps > 0 {
		// Pace before delivering: the bytes themselves arrive at the
		// capped rate, so even a single roundtrip feels the cap.
		c.faultOnce(FaultThrottle, fmt.Sprintf("bandwidth capped at %d bytes/s", bps))
		time.Sleep(time.Duration(len(chunk)) * time.Second / time.Duration(bps))
	}
	_, err := dst.Write(chunk)
	return err
}

// isClosedErr reports whether err is the "use of closed network
// connection" shape a deliberate local close produces.
func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed)
}
