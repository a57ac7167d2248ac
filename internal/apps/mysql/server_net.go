package mysql

import (
	"fmt"
	"strings"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/guard"
)

// This file promotes the mysql reproduction from an in-process driver
// to a real socket server: a net.Listener accept loop (via the appkit
// socket kit) with per-connection deadlines, graceful drain, and
// accept-loop shedding wired to the engine's OverloadConfig high-water
// marks. Sessions are connection ordinals, so concurrent network
// clients drive the same commit/FLUSH interleavings the in-process
// scenarios did — including the FLUSH-vs-DML lock-order deadlock, which
// a wait-graph supervisor watching the same engine confirms while the
// wedged handler goroutines sit behind real sockets.
//
// Protocol (one statement per line):
//
//	INSERT INTO t VALUES ('v') | SELECT ... | UPDATE ... | DELETE ...
//	DROP TABLE t | FLUSH LOGS          → ok <n> | err <msg>
//
// With Config.Bug == Deadlock (breakpoints armed), INSERT statements
// take the locked-commit path (catalog lock held across the binlog
// append) and FLUSH takes the rotation path (binlog lock held across a
// catalog scan) — the crossing acquisition orders of MySQL #9801.
// Overloaded accepts answer "err shed <reason>" and close.

// NetServer is the mysql reproduction listening on a real socket.
type NetServer struct {
	kit *appkit.SocketServer
	srv *Server
	cfg *Config
}

// NetConfig parameterizes StartNet beyond the run Config.
type NetConfig struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// ConnTimeout bounds each connection read/write (default 30s).
	ConnTimeout time.Duration
	// DrainTimeout bounds graceful drain on Close (default 5s).
	DrainTimeout time.Duration
	// Tables are created before serving (default: t1).
	Tables []string
}

// StartNet starts the server on a loopback listener, with the engine's
// global high-water mark (Engine.AtHighWater) as the accept loop's
// shedding policy.
func StartNet(cfg Config, ncfg NetConfig) (*NetServer, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("mysql: StartNet requires Config.Engine")
	}
	cfg.resolveHandles()
	ns := &NetServer{cfg: &cfg}
	ns.srv = NewServer(ns.cfg)
	tables := ncfg.Tables
	if len(tables) == 0 {
		tables = []string{"t1"}
	}
	for _, t := range tables {
		ns.srv.CreateTable(t)
	}
	e := cfg.Engine
	kit, err := appkit.StartSocketServer(appkit.SocketServerConfig{
		Addr:         ncfg.Addr,
		Handler:      ns.handle,
		Shed:         e.AtHighWater,
		OnShed:       func(reason string) { e.RecordIncident(guard.KindOverloadShed, "mysql.accept", 0, reason) },
		ShedResponse: "err shed",
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

// ShedCount returns how many connections the accept loop shed.
func (ns *NetServer) ShedCount() int64 { return ns.kit.ShedCount() }

// Served returns how many statements were answered.
func (ns *NetServer) Served() int64 { return ns.kit.Served() }

// Close drains the server gracefully. Handler goroutines wedged in a
// confirmed deadlock are abandoned at the drain bound — the deadlock is
// the application bug under study, not the server's to untangle.
func (ns *NetServer) Close() error { return ns.kit.Close() }

// handle executes one statement on behalf of session ordinal conn.
func (ns *NetServer) handle(conn, _ int, line string) (resp string) {
	defer func() {
		if p := recover(); p != nil {
			// The crash reproductions dereference freed storage; over a
			// socket that is a wire-visible server error, not a process
			// death (the subprocess campaign worker covers that shape).
			resp = fmt.Sprintf("err server crash: %v", p)
		}
	}()
	if ns.cfg.bug(Deadlock) {
		fields := strings.Fields(line)
		if len(fields) > 0 {
			switch strings.ToUpper(fields[0]) {
			case "INSERT":
				val, err := unquote(line, line)
				if err != nil {
					val = fmt.Sprintf("session-%d", conn)
				}
				ns.srv.commitWithBinlog(val)
				return "ok 1"
			case "FLUSH":
				return fmt.Sprintf("ok %d", ns.srv.flushWithReadLock())
			}
		}
	}
	n, err := ns.srv.Exec(conn, line)
	if err != nil {
		return "err " + err.Error()
	}
	return fmt.Sprintf("ok %d", n)
}
