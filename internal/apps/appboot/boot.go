// Package appboot boots the benchmark applications (httpd, mysql) as
// real socket servers behind one app-agnostic surface, shared by the
// drivers that put them under load: cmd/cbload (one seeded chaos run)
// and cmd/cbserverd (the always-on control plane). The package owns the
// app/bug flag vocabulary so every driver arms the same reproductions
// the same way. On top of the boot layer sits a self-healing process
// supervisor (supervisor.go): hosted apps can run as re-exec'd child
// worker processes (worker.go, proc.go) that are health-probed,
// restarted with jittered exponential backoff after crashes, and
// quarantined instead of restarted forever when they crash-loop.
package appboot

import (
	"fmt"
	"time"

	"cbreak/internal/apps/httpd"
	"cbreak/internal/apps/mysql"
	"cbreak/internal/core"
)

// Spec names one bootable app server: which reproduction, which bug is
// armed, where it listens, and (httpd only) which mysql backend its
// requests fan into.
type Spec struct {
	// App is the application to boot ("httpd" or "mysql").
	App string
	// Bug is the bug to arm ("none", "log-corruption" for httpd,
	// "deadlock" for mysql).
	Bug string
	// Pause is the breakpoint pause time T from the paper's methodology.
	Pause time.Duration
	// Listen is the listen address (empty = ephemeral loopback port).
	Listen string
	// Backend, for httpd, wires every GET into a derived statement
	// against this mysql address — the two-communicating-services
	// topology the multi-process deadlock scenarios drive.
	Backend string
}

// App is one running socket server behind an app-agnostic surface.
type App struct {
	// Name is the booted application ("httpd" or "mysql").
	Name string
	// Bug is the armed bug name ("none" when breakpoints are unarmed).
	Bug string
	// Addr is the server's listen address.
	Addr string
	// Close drains the server gracefully.
	Close func() error
	// Served returns how many request lines were answered.
	Served func() int64
	// ShedCount returns how many connections the accept loop shed.
	ShedCount func() int64
}

// StartApp boots the spec'd app server against e. Recognized app/bug
// pairs:
//
//	httpd: none, log-corruption
//	mysql: none, deadlock
func StartApp(e *core.Engine, spec Spec) (*App, error) {
	switch spec.App {
	case "httpd":
		cfg := httpd.Config{Engine: e, Timeout: spec.Pause}
		switch spec.Bug {
		case "none":
			cfg.Bug, cfg.Breakpoint = httpd.LogCorruption, false
		case "log-corruption":
			cfg.Bug, cfg.Breakpoint = httpd.LogCorruption, true
		default:
			return nil, fmt.Errorf("unknown httpd bug %q (want none or log-corruption)", spec.Bug)
		}
		ns, err := httpd.StartNet(cfg, httpd.NetConfig{
			Addr: spec.Listen, Backend: spec.Backend,
		})
		if err != nil {
			return nil, fmt.Errorf("httpd start: %w", err)
		}
		return &App{Name: spec.App, Bug: spec.Bug, Addr: ns.Addr(),
			Close: ns.Close, Served: ns.Served, ShedCount: ns.ShedCount}, nil
	case "mysql":
		cfg := mysql.Config{Engine: e, Timeout: spec.Pause, StallAfter: 30 * time.Second}
		switch spec.Bug {
		case "none":
			cfg.Bug, cfg.Breakpoint = mysql.Deadlock, false
		case "deadlock":
			cfg.Bug, cfg.Breakpoint = mysql.Deadlock, true
		default:
			return nil, fmt.Errorf("unknown mysql bug %q (want none or deadlock)", spec.Bug)
		}
		ns, err := mysql.StartNet(cfg, mysql.NetConfig{Addr: spec.Listen})
		if err != nil {
			return nil, fmt.Errorf("mysql start: %w", err)
		}
		return &App{Name: spec.App, Bug: spec.Bug, Addr: ns.Addr(),
			Close: ns.Close, Served: ns.Served, ShedCount: ns.ShedCount}, nil
	}
	return nil, fmt.Errorf("unknown app %q (want httpd or mysql)", spec.App)
}

// RequestGenerator returns the canonical load-request generator for the
// named app — the request a load client with ordinal client issues as
// its request'th call. Decoupled from StartApp so a driver can generate
// load against a server it did not boot (cbload -connect).
func RequestGenerator(app string) (func(client, request int) string, error) {
	switch app {
	case "httpd":
		return func(client, request int) string {
			return fmt.Sprintf("GET /page/%d", client*1000+request)
		}, nil
	case "mysql":
		return func(client, request int) string {
			// Even clients write, odd clients rotate logs: with the
			// deadlock armed this drives the crossing lock orders.
			if client%2 == 0 {
				return fmt.Sprintf("INSERT INTO t1 VALUES ('c%d-r%d')", client, request)
			}
			return "FLUSH LOGS"
		}, nil
	}
	return nil, fmt.Errorf("unknown app %q (want httpd or mysql)", app)
}
