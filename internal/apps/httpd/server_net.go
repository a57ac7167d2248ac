package httpd

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/guard"
)

// This file promotes the httpd reproduction from an in-process driver
// to a real socket server: a net.Listener accept loop (via the appkit
// socket kit) with per-connection deadlines, graceful drain, and
// accept-loop shedding wired to the engine's OverloadConfig high-water
// marks. The worker identity that the log-corruption breakpoint
// choreographs comes from the connection ordinal, so two concurrent
// network clients race the same way the two in-process workers did.
//
// Protocol (one line per request):
//
//	GET <path> [big]  → 200 id=<n> OK            (serve a request)
//	RELOAD <size>     → 200 reloaded <size>       (config reload)
//	anything else     → 400 parse error
//
// Overloaded accepts answer "503 shed <reason>" and close.

// NetServer is the httpd reproduction listening on a real socket.
type NetServer struct {
	kit   *appkit.SocketServer
	srv   *Server
	cfg   *Config
	ncfg  NetConfig
	reqID atomic.Int64

	backendOK   atomic.Int64
	backendErrs atomic.Int64
}

// NetConfig parameterizes StartNet beyond the run Config.
type NetConfig struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// ConnTimeout bounds each connection read/write (default 30s).
	ConnTimeout time.Duration
	// DrainTimeout bounds graceful drain on Close (default 5s).
	DrainTimeout time.Duration
	// Backend, when set, wires httpd to a mysql server: every GET
	// derives a statement from its path ordinal (even → INSERT, odd →
	// FLUSH LOGS) and round-trips it to this address before answering,
	// so client load on httpd drives the two communicating services —
	// and, with the mysql deadlock armed, the FLUSH-vs-DML lock cycle —
	// across a real process boundary.
	Backend string
	// BackendTimeout bounds one backend dial+roundtrip (default 2s). A
	// deadlocked or partitioned backend turns into a 502 at this bound,
	// not a wedged httpd handler.
	BackendTimeout time.Duration
}

// StartNet starts the server on a loopback listener. The engine's
// global high-water mark (Engine.AtHighWater) doubles as the accept
// loop's shedding policy: at or above it new connections are answered
// "503 shed" and dropped, and each shed is recorded as an overload-shed
// guard incident.
func StartNet(cfg Config, ncfg NetConfig) (*NetServer, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("httpd: StartNet requires Config.Engine")
	}
	cfg.resolveHandles()
	if ncfg.BackendTimeout <= 0 {
		ncfg.BackendTimeout = 2 * time.Second
	}
	ns := &NetServer{cfg: &cfg, ncfg: ncfg}
	ns.srv = NewServer(ns.cfg)
	kit, err := appkit.StartSocketServer(appkit.SocketServerConfig{
		Addr:         ncfg.Addr,
		Handler:      ns.handle,
		Shed:         cfg.Engine.AtHighWater,
		OnShed:       func(reason string) { cfg.Engine.RecordIncident(guard.KindOverloadShed, "httpd.accept", 0, reason) },
		ShedResponse: "503 shed",
		ConnTimeout:  ncfg.ConnTimeout,
		DrainTimeout: ncfg.DrainTimeout,
	})
	if err != nil {
		return nil, err
	}
	ns.kit = kit
	return ns, nil
}

// Addr returns the server's listen address.
func (ns *NetServer) Addr() string { return ns.kit.Addr() }

// LogLines reports how many access-log lines are intact plus the raw
// buffer — the corruption check, exported for socket-mode harness rows.
func (ns *NetServer) LogLines() (intact int, raw string) { return ns.srv.log.Lines() }

// HandledCount returns the server-side served-requests counter (the
// denominator of the corruption check).
func (ns *NetServer) HandledCount() int64 { return ns.srv.served.Load("httpd:net.check") }

// ShedCount returns how many connections the accept loop shed.
func (ns *NetServer) ShedCount() int64 { return ns.kit.ShedCount() }

// Served returns how many request lines were answered.
func (ns *NetServer) Served() int64 { return ns.kit.Served() }

// Close drains the server gracefully.
func (ns *NetServer) Close() error { return ns.kit.Close() }

// backendStatement derives the mysql statement a GET implies: even path
// ordinals write (DML), odd ones rotate logs (FLUSH) — the crossing
// pair that drives the FLUSH-vs-DML deadlock when the backend has it
// armed. A path without a trailing number falls back to the request id.
func backendStatement(path string, id int) string {
	ord := id
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		if n, err := strconv.Atoi(path[i+1:]); err == nil {
			ord = n
		}
	}
	if ord%2 == 0 {
		return fmt.Sprintf("INSERT INTO t1 VALUES ('page-%d')", ord)
	}
	return "FLUSH LOGS"
}

// backendExec round-trips one statement to the mysql backend on a fresh
// connection bounded by BackendTimeout. Per-request dialing keeps the
// wire simple and makes a restarted backend immediately usable — the
// self-healing supervisor relaunches workers on their original address.
func (ns *NetServer) backendExec(stmt string) (string, error) {
	deadline := time.Now().Add(ns.ncfg.BackendTimeout)
	conn, err := net.DialTimeout("tcp", ns.ncfg.Backend, ns.ncfg.BackendTimeout)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if err := conn.SetDeadline(deadline); err != nil {
		return "", err
	}
	if _, err := fmt.Fprintf(conn, "%s\n", stmt); err != nil {
		return "", err
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(reply, "\r\n"), nil
}

// handle serves one request line. The connection ordinal's parity is
// the worker identity the breakpoints align, so any two concurrent
// connections of opposite parity can reproduce the two-worker races.
func (ns *NetServer) handle(conn, _ int, line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "400 parse error"
	}
	worker := conn % 2
	switch strings.ToUpper(fields[0]) {
	case "GET":
		if len(fields) < 2 {
			return "400 parse error"
		}
		req := Request{
			ID:   int(ns.reqID.Add(1)),
			Path: fields[1],
			Big:  len(fields) > 2 && strings.EqualFold(fields[2], "big"),
		}
		if err := ns.srv.Handle(req, worker); err != nil {
			return "500 " + err.Error()
		}
		if ns.ncfg.Backend != "" {
			reply, err := ns.backendExec(backendStatement(req.Path, req.ID))
			if err != nil {
				ns.backendErrs.Add(1)
				return fmt.Sprintf("502 id=%d db %v", req.ID, err)
			}
			ns.backendOK.Add(1)
			return fmt.Sprintf("200 id=%d OK db=%s", req.ID, reply)
		}
		return fmt.Sprintf("200 id=%d OK", req.ID)
	case "RELOAD":
		size := 1 << 10
		if len(fields) > 1 {
			if n, err := strconv.Atoi(fields[1]); err == nil && n > 0 {
				size = n
			}
		}
		ns.srv.Reload(size)
		return fmt.Sprintf("200 reloaded %d", size)
	default:
		return "400 parse error"
	}
}
