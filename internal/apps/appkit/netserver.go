package appkit

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the socket-serving kit shared by the benchmark
// applications that run as real network servers (httpd, mysql): a
// line-protocol accept loop with per-connection deadlines, accept-loop
// load shedding, and graceful drain. The applications own the protocol
// (the Handler); the kit owns the transport discipline, so every app
// server degrades the same way under the chaos layer's faults.

// LineHandler serves one request line from connection ordinal conn
// (1-based, accept order) and returns the response line. seq is the
// request ordinal within the connection (0-based).
type LineHandler func(conn, seq int, line string) string

// SocketServerConfig parameterizes a SocketServer.
type SocketServerConfig struct {
	// Handler serves each request line (required).
	Handler LineHandler
	// Addr is the listen address (default "127.0.0.1:0", an ephemeral
	// loopback port). Always-on deployments (cmd/cbserverd) pin it so
	// the served address survives restarts.
	Addr string
	// Shed, when non-nil, is consulted before serving each accepted
	// connection; a true verdict sheds it: the server writes
	// ShedResponse and closes instead of serving — accept-loop
	// degradation wired to the engine's overload water marks by the
	// app wrappers.
	Shed func() (reason string, shed bool)
	// OnShed, when non-nil, observes each shed connection's reason
	// (the app wrappers record a guard overload-shed incident).
	OnShed func(reason string)
	// ShedResponse is the line written to shed connections (default
	// "err overloaded").
	ShedResponse string
	// ConnTimeout bounds each read and write on a connection (default
	// 30s); an idle or wedged peer is disconnected, never accumulated.
	ConnTimeout time.Duration
	// DrainTimeout bounds Close's graceful drain (default 5s); live
	// connections still open at the bound are severed.
	DrainTimeout time.Duration
}

// SocketServer is a line-protocol TCP server on a loopback listener.
type SocketServer struct {
	cfg SocketServerConfig
	ln  net.Listener

	accepted atomic.Int64
	served   atomic.Int64
	shed     atomic.Int64

	//cbvet:ignore rawsync guards server-kit connection bookkeeping, not an application lock in any modeled deadlock
	mu     sync.Mutex
	active map[net.Conn]struct{}
	closed bool

	acceptDone chan struct{}
	inflight   sync.WaitGroup
}

// StartSocketServer listens on cfg.Addr (default 127.0.0.1:0) and
// serves cfg.Handler.
func StartSocketServer(cfg SocketServerConfig) (*SocketServer, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("appkit: SocketServerConfig.Handler is required")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.ShedResponse == "" {
		cfg.ShedResponse = "err overloaded"
	}
	if cfg.ConnTimeout <= 0 {
		cfg.ConnTimeout = 30 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("appkit: listen: %w", err)
	}
	s := &SocketServer{
		cfg:        cfg,
		ln:         ln,
		active:     make(map[net.Conn]struct{}),
		acceptDone: make(chan struct{}),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *SocketServer) Addr() string { return s.ln.Addr().String() }

// Served returns how many request lines were answered.
func (s *SocketServer) Served() int64 { return s.served.Load() }

// ShedCount returns how many connections were shed at the accept loop.
func (s *SocketServer) ShedCount() int64 { return s.shed.Load() }

func (s *SocketServer) acceptLoop() {
	defer close(s.acceptDone)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain begins
		}
		ord := int(s.accepted.Add(1))
		if s.cfg.Shed != nil {
			if reason, shed := s.cfg.Shed(); shed {
				s.shed.Add(1)
				if s.cfg.OnShed != nil {
					s.cfg.OnShed(reason)
				}
				conn.SetWriteDeadline(time.Now().Add(s.cfg.ConnTimeout))
				fmt.Fprintf(conn, "%s\n", s.cfg.ShedResponse)
				conn.Close()
				continue
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.active[conn] = struct{}{}
		s.inflight.Add(1)
		s.mu.Unlock()
		go s.serve(conn, ord)
	}
}

// serve answers request lines on one connection until EOF, a transport
// error, or a deadline.
func (s *SocketServer) serve(conn net.Conn, ord int) {
	defer func() {
		s.mu.Lock()
		delete(s.active, conn)
		s.mu.Unlock()
		conn.Close()
		s.inflight.Done()
	}()
	rd := bufio.NewReader(conn)
	for seq := 0; ; seq++ {
		conn.SetReadDeadline(time.Now().Add(s.cfg.ConnTimeout))
		line, err := rd.ReadString('\n')
		if err != nil {
			return
		}
		resp := s.cfg.Handler(ord, seq, strings.TrimRight(line, "\r\n"))
		s.served.Add(1)
		conn.SetWriteDeadline(time.Now().Add(s.cfg.ConnTimeout))
		if _, err := fmt.Fprintf(conn, "%s\n", resp); err != nil {
			return
		}
	}
}

// Close drains the server gracefully: stop accepting, wait up to
// DrainTimeout for in-flight connections to finish, then sever whatever
// remains. Idempotent.
func (s *SocketServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	<-s.acceptDone

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		// Drain bound hit: sever the stragglers. Handler goroutines
		// wedged inside the application (the deadlock reproductions do
		// exactly that) are abandoned with their connections closed.
		s.mu.Lock()
		for conn := range s.active {
			conn.Close()
		}
		s.mu.Unlock()
		select {
		case <-done:
		case <-time.After(s.cfg.DrainTimeout):
		}
	}
	return err
}
