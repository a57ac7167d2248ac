// Command cbload drives concurrent retrying load clients through the
// netchaos fault-injecting proxy against a real-socket benchmark server
// (httpd or mysql) with concurrent breakpoints optionally armed. It is
// the network-chaos analog of cbtables' single rows: one seeded, fully
// reproducible load run with every injected fault attributed in the
// engine's incident log and — when the armed bug is the mysql
// FLUSH-vs-DML deadlock — a wait-graph supervisor confirming the cycle
// behind the sockets.
//
// Usage:
//
//	cbload -app httpd -bug log-corruption -clients 16 -requests 8 -seed 7 \
//	    -reset 0.15 -latency 200us
//	cbload -app mysql -bug deadlock -seed 7 -expect-deadlock
//	cbload -app httpd -clients 1000 -requests 2 -reset 0.1 -truncate 0.1   # load smoke
//	cbload -describe 8 -seed 7 -reset 0.2    # print the fault schedule and exit
//	cbload -app httpd -connect 127.0.0.1:7177 -clients 32    # drive a live cbserverd
//
// The fault schedule and every client's retry jitter derive from -seed,
// so a run replays fault-for-fault; -describe prints the schedule
// fingerprint two runs can diff.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"cbreak/internal/apps/appboot"
	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/guard"
	"cbreak/internal/journal"
	"cbreak/internal/journal/sink"
	"cbreak/internal/netchaos"
	"cbreak/internal/waitgraph"
)

func main() {
	app := flag.String("app", "httpd", "server to load: httpd or mysql")
	bug := flag.String("bug", "none", "bug to arm: none, log-corruption (httpd), deadlock (mysql)")
	clients := flag.Int("clients", 16, "concurrent load clients")
	requests := flag.Int("requests", 8, "sequential requests per client")
	seed := flag.Int64("seed", 1, "seed for the fault schedule and all retry jitter")
	pause := flag.Duration("pause", 50*time.Millisecond, "breakpoint pause time T")

	latency := flag.Duration("latency", 0, "base injected latency per forwarded chunk")
	latencyJitter := flag.Duration("latency-jitter", 0, "extra per-connection latency bound (defaults to -latency)")
	reset := flag.Float64("reset", 0, "connection reset probability")
	truncate := flag.Float64("truncate", 0, "stream truncation probability")
	halfOpen := flag.Float64("halfopen", 0, "half-open drop probability")
	throttle := flag.Float64("throttle", 0, "bandwidth throttle probability")
	throttleBps := flag.Int("throttle-bps", 0, "throttled connection cap in bytes/second (default 2048)")
	slowLoris := flag.Float64("slowloris", 0, "slow-loris trickle probability")
	partitionAt := flag.Int("partition-at", 0, "begin a full partition at this connection ordinal (0 = never)")
	partitionFor := flag.Int("partition-for", 0, "partition window width in ordinals (default 8)")

	attempts := flag.Int("attempts", 3, "attempts per request (1 try + retries)")
	retryBudget := flag.Int("retry-budget", 0, "per-client lifetime retry cap (0 = unlimited)")
	attemptTimeout := flag.Duration("attempt-timeout", time.Second, "per-attempt dial+roundtrip bound")
	requestTimeout := flag.Duration("request-timeout", 5*time.Second, "per-request bound including retries and backoff")

	connect := flag.String("connect", "", "drive an already-running server at this address (e.g. a live cbserverd proxy); skips the self-hosted server, proxy, engine, and verdict")
	describe := flag.Int("describe", 0, "print the fault plans of the first N connection ordinals and exit (determinism fingerprint)")
	expectDeadlock := flag.Bool("expect-deadlock", false, "exit nonzero unless the wait-graph supervisor confirms a deadlock")
	stallWait := flag.Duration("stall-wait", 2*time.Second, "how long to wait for a deadlock confirmation after the load drains")
	durableEvents := flag.String("durable-events", "", "journal engine events and guard incidents under this directory")
	flag.Parse()

	appkit.SeedJitter(*seed)
	faults := netchaos.Faults{
		Latency: *latency, LatencyJitter: *latencyJitter,
		ResetRate: *reset, TruncateRate: *truncate, HalfOpenRate: *halfOpen,
		ThrottleRate: *throttle, ThrottleBps: *throttleBps, SlowLorisRate: *slowLoris,
		PartitionAt: *partitionAt, PartitionFor: *partitionFor,
	}
	if *describe > 0 {
		fmt.Print(netchaos.NewSchedule(appkit.JitterSeed(), faults).Describe(*describe))
		return
	}

	clientCfg := netchaos.ClientConfig{
		Attempts: *attempts, RetryBudget: *retryBudget,
		AttemptTimeout: *attemptTimeout, RequestTimeout: *requestTimeout,
	}

	if *connect != "" {
		// Remote mode: the server (and any chaos proxy in front of it)
		// is someone else's — typically a live cbserverd — so the run is
		// pure client load: no engine, no verdict, no local faults.
		makeRequest, err := appboot.RequestGenerator(*app)
		if err != nil {
			fatal("%v", err)
		}
		// Preflight the target under the attempt timeout (the tightest
		// bound in the AttemptTimeout ≤ RequestTimeout hierarchy): a
		// down daemon fails the run in one clear line instead of every
		// client burning its full retry schedule against a dead socket.
		conn, err := net.DialTimeout("tcp", *connect, *attemptTimeout)
		if err != nil {
			fatal("target %s is unreachable: %v (is cbserverd running? check its /status proxy_addr)", *connect, err)
		}
		conn.Close()
		rep := netchaos.RunLoad(netchaos.LoadConfig{
			Addr: *connect, Seed: appkit.JitterSeed(),
			Clients: *clients, Requests: *requests,
			MakeRequest: makeRequest,
			Client:      clientCfg,
		})
		fmt.Printf("load: %s\n", rep)
		return
	}

	e := core.NewEngine()
	if *durableEvents != "" {
		s, err := sink.Open(*durableEvents, journal.SyncInterval)
		if err != nil {
			fatal("durable events: %v", err)
		}
		defer s.Close()
		e.SetDurableSink(s)
	}
	sup := waitgraph.New(e, waitgraph.Config{})
	sup.Start()
	defer sup.Stop()

	server, err := appboot.StartApp(e, appboot.Spec{App: *app, Bug: *bug, Pause: *pause})
	if err != nil {
		fatal("%v", err)
	}
	defer server.Close()
	makeRequest, err := appboot.RequestGenerator(*app)
	if err != nil {
		fatal("%v", err)
	}

	px, err := netchaos.Start(server.Addr, netchaos.Config{
		Seed:   appkit.JitterSeed(),
		Faults: faults,
		OnFault: func(ev netchaos.FaultEvent) {
			e.RecordIncident(guard.KindNetFault, "netchaos."+ev.Kind.String(), 0, ev.String())
		},
	})
	if err != nil {
		fatal("proxy start: %v", err)
	}
	defer px.Close()

	rep := netchaos.RunLoad(netchaos.LoadConfig{
		Addr: px.Addr(), Seed: appkit.JitterSeed(),
		Clients: *clients, Requests: *requests,
		MakeRequest: makeRequest,
		Client:      clientCfg,
	})

	fmt.Printf("load: %s\n", rep)
	fmt.Printf("proxy: %d connection(s), %d fault(s) injected\n", px.Connections(), px.TotalFaults())
	for _, k := range netchaos.Kinds() {
		if n := px.FaultCount(k); n > 0 {
			fmt.Printf("  %-10s %d\n", k, n)
		}
	}
	fmt.Printf("server: %d request(s) served, %d connection(s) shed\n", server.Served(), server.ShedCount())
	if inc := e.IncidentCounts(); len(inc) > 0 {
		keys := make([]string, 0, len(inc))
		for k := range inc {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Println("incidents:")
		for _, k := range keys {
			fmt.Printf("  %-20s %d\n", k, inc[k])
		}
	}

	confirmed := false
	select {
	case <-sup.Confirmed():
		confirmed = true
	default:
		if *expectDeadlock {
			select {
			case <-sup.Confirmed():
				confirmed = true
			case <-time.After(*stallWait):
			}
		}
	}
	if confirmed {
		fmt.Println("verdict: wait-graph deadlock confirmed")
		for _, r := range sup.Reports() {
			if r.Kind == waitgraph.ReportDeadlock {
				fmt.Printf("  %s\n", r.Desc)
			}
		}
	} else {
		fmt.Println("verdict: no deadlock confirmed")
	}
	if *expectDeadlock && !confirmed {
		fatal("expected a confirmed deadlock; none observed")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cbload: "+format+"\n", args...)
	os.Exit(1)
}
