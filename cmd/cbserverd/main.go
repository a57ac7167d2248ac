// Command cbserverd is the always-on face of the breakpoint engine: it
// boots one or more benchmark app servers (httpd, mysql) behind the
// netchaos fault-injecting proxy and serves a live control plane over
// HTTP — Prometheus-text metrics from the typed telemetry registry, an
// NDJSON stream of every record on the engine's telemetry bus, and an
// admin API that registers/enables/disables breakpoints, tunes the
// overload policy (the timeout-rate trip included), and force-releases
// wedged victims, all without a restart.
//
// Hosted apps run under a self-healing supervisor: each is
// health-probed over its own socket protocol, restarted with jittered
// exponential backoff when it crashes or wedges, and quarantined when
// it crash-loops. With -supervise the apps run as re-exec'd child
// worker processes (cbserverd -app-worker), so the supervision covers
// real process death — SIGKILL, SIGSTOP wedges, disk faults under a
// worker's durable journal — not just in-process failures.
//
// Usage:
//
//	cbserverd -addr 127.0.0.1:7070 -app httpd -bug log-corruption
//	cbserverd -addr 127.0.0.1:7070 -apps mysql:deadlock,httpd -supervise \
//	    -durable-events /var/lib/cbreak/journal
//
// Endpoints (admin listener):
//
//	GET  /healthz                  honest liveness: 503 while draining or shedding
//	GET  /readyz                   readiness: 200 only when every hosted app is up
//	GET  /metrics                  Prometheus text exposition
//	GET  /stream                   NDJSON telemetry feed (until disconnect)
//	GET  /status                   process/server/proxy/supervisor status JSON
//	GET  /breakpoints              per-breakpoint stats + enabled flags
//	GET  /waiters                  currently postponed goroutines
//	GET  /incidents                guard incident log snapshot
//	GET  /reports                  wait-graph supervisor reports
//	POST /breakpoints/toggle       ?name=X&enabled=true|false
//	POST /engine                   ?enabled=true|false
//	POST /tune/overload            ?high-water=&soft-water=&max-per-shard=&min-budget=&timeout-rate= | ?clear=true
//	POST /release                  ?breakpoint=X&gid=N
//	POST /chaos/partition          ?duration=2s   (sever the proxy for a window)
//	POST /apps/revive              ?name=X        (lift a quarantine)
//
// Load clients dial the chaos proxy address (-proxy-addr, reported in
// /status); cbload -connect drives it directly. With both httpd and
// mysql hosted, httpd is automatically wired to mysql as its backend,
// so proxied GETs fan into statements across the process boundary.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"cbreak/internal/apps/appboot"
	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/guard"
	"cbreak/internal/journal"
	"cbreak/internal/journal/sink"
	"cbreak/internal/netchaos"
	"cbreak/internal/telemetry"
	"cbreak/internal/waitgraph"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "admin/metrics HTTP listen address")
	app := flag.String("app", "httpd", "server to run: httpd or mysql")
	bug := flag.String("bug", "none", "bug to arm: none, log-corruption (httpd), deadlock (mysql)")
	apps := flag.String("apps", "", "host several apps: comma-separated app[:bug] list (overrides -app/-bug), e.g. mysql:deadlock,httpd")
	pause := flag.Duration("pause", 50*time.Millisecond, "breakpoint pause time T")
	appAddr := flag.String("app-addr", "127.0.0.1:0", "app server listen address (first app; later apps always take ephemeral ports)")
	proxyAddr := flag.String("proxy-addr", "127.0.0.1:0", "chaos proxy listen address (what load clients dial)")
	seed := flag.Int64("seed", 1, "seed for the fault schedule")

	latency := flag.Duration("latency", 0, "base injected latency per forwarded chunk")
	latencyJitter := flag.Duration("latency-jitter", 0, "extra per-connection latency bound (defaults to -latency)")
	reset := flag.Float64("reset", 0, "connection reset probability")
	truncate := flag.Float64("truncate", 0, "stream truncation probability")
	halfOpen := flag.Float64("halfopen", 0, "half-open drop probability")
	throttle := flag.Float64("throttle", 0, "bandwidth throttle probability")
	throttleBps := flag.Int("throttle-bps", 0, "throttled connection cap in bytes/second (default 2048)")
	slowLoris := flag.Float64("slowloris", 0, "slow-loris trickle probability")

	supervise := flag.Bool("supervise", false, "run hosted apps as re-exec'd child worker processes under the self-healing supervisor")
	restartBackoff := flag.Duration("restart-backoff", 100*time.Millisecond, "supervisor base restart delay (doubles per consecutive crash)")
	maxRestartBackoff := flag.Duration("max-restart-backoff", 5*time.Second, "supervisor restart delay ceiling")
	crashloopWindow := flag.Duration("crashloop-window", 30*time.Second, "crash-loop detection window")
	crashloopThreshold := flag.Int("crashloop-threshold", 5, "crashes inside the window that quarantine an app")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "health-probe period (negative disables probing)")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "health-probe round-trip bound")
	probeFailures := flag.Int("probe-failures", 3, "consecutive probe failures that declare an app wedged")

	durableEvents := flag.String("durable-events", "", "journal engine events and guard incidents under this directory (per-app subdirectories with -supervise)")
	drainTimeout := flag.Duration("drain", 5*time.Second, "graceful drain bound on shutdown")

	appWorker := flag.Bool("app-worker", false, "internal: run as a supervised app worker process")
	backend := flag.String("backend", "", "internal (worker): mysql backend address for a hosted httpd")
	crashApp := flag.String("crash-app", "", "chaos: arm a one-shot disk fault under this app's durable journal (needs -supervise and -durable-events)")
	crashAppends := flag.Int("crash-appends", 0, "chaos: the durability operation ordinal at which the armed disk fault fires")
	flag.Parse()

	if *appWorker {
		err := appboot.RunWorker(appboot.WorkerConfig{
			Spec: appboot.Spec{App: *app, Bug: *bug, Pause: *pause, Listen: *appAddr, Backend: *backend},
			Seed: *seed, DurableDir: *durableEvents, CrashAppends: *crashAppends,
		})
		if err != nil {
			fatal("%v", err)
		}
		return
	}

	specs, err := resolveSpecs(*apps, *app, *bug, *pause, *appAddr)
	if err != nil {
		fatal("%v", err)
	}

	appkit.SeedJitter(*seed)
	e := core.NewEngine()
	var snk *sink.Sink
	if *durableEvents != "" {
		// With -supervise each worker journals into its own per-app
		// subdirectory; the daemon keeps its own journal alongside.
		dir := *durableEvents
		if *supervise {
			dir = filepath.Join(dir, "daemon")
		}
		snk, err = sink.Open(dir, journal.SyncInterval)
		if err != nil {
			fatal("durable events: %v", err)
		}
		defer snk.Close()
		e.SetDurableSink(snk)
	}
	sup := waitgraph.New(e, waitgraph.Config{})
	sup.Start()
	defer sup.Stop()

	hosts := appboot.NewSupervisor()
	hostCfg := appboot.HostConfig{
		RestartBackoff: *restartBackoff, MaxRestartBackoff: *maxRestartBackoff,
		CrashLoopWindow: *crashloopWindow, CrashLoopThreshold: *crashloopThreshold,
		ProbeInterval: *probeInterval, ProbeTimeout: *probeTimeout,
		ProbeFailures: *probeFailures, Seed: *seed,
		OnEvent: func(ev appboot.HostEvent) { fmt.Println("cbserverd: " + ev.String()) },
	}
	var mysqlHost *appboot.Host
	self, _ := os.Executable()
	for i, spec := range specs {
		spec, i := spec, i
		cfg := hostCfg
		cfg.Name = spec.App
		if *supervise {
			if self == "" {
				fatal("-supervise: cannot resolve own binary for re-exec")
			}
			cfg.Launch = appboot.ProcLauncher(appboot.ProcConfig{
				Bin: self,
				Args: func(listenAddr string) []string {
					a := []string{"-app-worker",
						"-app", spec.App, "-bug", spec.Bug,
						"-pause", spec.Pause.String(),
						"-seed", strconv.FormatInt(appkit.DeriveSeed(*seed, int64(i+1)), 10),
					}
					switch {
					case listenAddr != "":
						a = append(a, "-app-addr", listenAddr)
					case spec.Listen != "":
						a = append(a, "-app-addr", spec.Listen)
					default:
						a = append(a, "-app-addr", "127.0.0.1:0")
					}
					if spec.App == "httpd" && mysqlHost != nil {
						a = append(a, "-backend", mysqlHost.Addr())
					}
					if *durableEvents != "" {
						a = append(a, "-durable-events", filepath.Join(*durableEvents, spec.App))
						if *crashApp == spec.App && *crashAppends > 0 {
							a = append(a, "-crash-appends", strconv.Itoa(*crashAppends))
						}
					}
					return a
				},
			})
		} else {
			cfg.Launch = func(prevAddr string) (appboot.Instance, error) {
				s := spec
				if s.App == "httpd" && mysqlHost != nil {
					s.Backend = mysqlHost.Addr()
				}
				return appboot.InProcLauncher(e, s)(prevAddr)
			}
		}
		h := hosts.Add(cfg)
		if spec.App == "mysql" {
			mysqlHost = h
		}
	}
	if err := hosts.StartAll(); err != nil {
		fatal("%v", err)
	}
	defer hosts.StopAll()

	// The proxy fronts the app load clients dial: httpd when hosted
	// (it fans into mysql itself), otherwise the first app. Host
	// addresses are pinned across restarts, so the target stays valid
	// through supervisor relaunches.
	front := hosts.Hosts()[0]
	if h := hosts.Host("httpd"); h != nil {
		front = h
	}
	px, err := netchaos.Start(front.Addr(), netchaos.Config{
		ListenAddr: *proxyAddr,
		Seed:       appkit.JitterSeed(),
		Faults: netchaos.Faults{
			Latency: *latency, LatencyJitter: *latencyJitter,
			ResetRate: *reset, TruncateRate: *truncate, HalfOpenRate: *halfOpen,
			ThrottleRate: *throttle, ThrottleBps: *throttleBps, SlowLorisRate: *slowLoris,
		},
		OnFault: func(ev netchaos.FaultEvent) {
			e.RecordIncident(guard.KindNetFault, "netchaos."+ev.Kind.String(), 0, ev.String())
		},
	})
	if err != nil {
		fatal("proxy start: %v", err)
	}
	defer px.Close()

	reg := telemetry.NewRegistry()
	e.RegisterMetrics(reg)
	sup.RegisterMetrics(reg)
	hosts.RegisterMetrics(reg)
	reg.WireBus("engine", e.Bus())

	d := &daemon{e: e, sup: sup, reg: reg, hosts: hosts, specs: specs,
		front: front, px: px, snk: snk, started: time.Now()}
	d.registerServingMetrics(reg)

	// Listen before serving so an ephemeral -addr (:0) prints the real
	// port — the scenario harness boots daemons this way.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("admin listener: %v", err)
	}
	httpSrv := &http.Server{Handler: d.mux()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	fmt.Printf("cbserverd: admin http://%s  apps %s  proxy %s -> %s\n",
		ln.Addr(), describeSpecs(specs, hosts), px.Addr(), front.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fatal("admin listener: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: flip /healthz to 503 and flush the durable sink
	// first — everything journaled so far is on disk even if the rest
	// of the drain is cut short — then stop admin intake (in-flight
	// scrapes and streams get the drain bound), then sever the chaos
	// proxy so the app servers' own drains aren't racing injected
	// faults, then the deferred closes drain the hosts, supervisor and
	// sink.
	fmt.Println("cbserverd: draining")
	d.draining.Store(true)
	if snk != nil {
		if err := snk.Sync(); err != nil {
			fmt.Fprintf(os.Stderr, "cbserverd: drain sink sync: %v\n", err)
		}
	}
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		httpSrv.Close()
	}
}

// resolveSpecs turns the flag surface into the ordered spec list:
// -apps wins over -app/-bug, mysql boots before httpd (httpd's backend
// wiring needs the mysql address), and the first spec gets -app-addr.
func resolveSpecs(apps, app, bug string, pause time.Duration, appAddr string) ([]appboot.Spec, error) {
	var specs []appboot.Spec
	if apps != "" {
		var err error
		specs, err = appboot.ParseApps(apps, pause)
		if err != nil {
			return nil, err
		}
	} else {
		specs = []appboot.Spec{{App: app, Bug: bug, Pause: pause}}
	}
	// Backends before dependents: mysql first.
	for i, s := range specs {
		if s.App == "mysql" && i != 0 {
			specs[0], specs[i] = specs[i], specs[0]
		}
	}
	if len(specs) == 1 {
		specs[0].Listen = appAddr
	}
	return specs, nil
}

// describeSpecs formats the hosted apps for the boot banner.
func describeSpecs(specs []appboot.Spec, hosts *appboot.Supervisor) string {
	out := ""
	for i, s := range specs {
		if i > 0 {
			out += ","
		}
		addr := ""
		if h := hosts.Host(s.App); h != nil {
			addr = h.Addr()
		}
		out += fmt.Sprintf("%s(%s)@%s", s.App, s.Bug, addr)
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cbserverd: "+format+"\n", args...)
	os.Exit(1)
}
