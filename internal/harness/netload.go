package harness

import (
	"fmt"
	"sync"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/apps/httpd"
	"cbreak/internal/apps/mysql"
	"cbreak/internal/core"
	"cbreak/internal/guard"
	"cbreak/internal/netchaos"
)

// This file is the network-chaos trial family: the httpd and mysql
// reproductions promoted to real socket servers, driven by concurrent
// retrying load clients through the netchaos fault-injecting proxy.
// The classification discipline is the whole point of the rows:
// application verdicts (log corruption, a wait-graph-confirmed
// deadlock) must survive the proxy's injected faults, while the faults
// themselves surface only as net-fault-injected guard incidents and
// client retries — never as an application outcome.
//
// Every chaos source descends from the trial seed: the proxy's fault
// schedule and each client's retry jitter are seeded from the appkit
// jitter stream, so a seeded trial replays its fault schedule and its
// retry timing exactly.

// recordNetFaults forwards every injected proxy fault to the engine's
// incident log as a net-fault-injected record: visible, attributable
// infrastructure noise, segregated from application verdicts.
func recordNetFaults(e *core.Engine) func(netchaos.FaultEvent) {
	return func(ev netchaos.FaultEvent) {
		e.RecordIncident(guard.KindNetFault, "netchaos."+ev.Kind.String(), 0, ev.String())
	}
}

// startFail reports a server or proxy that failed to come up — an
// infrastructure failure, deliberately not a bug verdict.
func startFail(stage string, err error) appkit.Result {
	return appkit.Result{Status: appkit.TestFail, Detail: stage + ": " + err.Error()}
}

// netHTTPDCorruption runs the Apache #25520 log-corruption race over
// real sockets: eight concurrent clients (mixed connection parity = the
// two racing worker identities) through a proxy injecting latency and
// connection resets. Corruption is judged server-side from the access
// log; client-visible transport failures only mark the run degraded.
func netHTTPDCorruption(e *core.Engine, bp bool, to time.Duration) appkit.Result {
	ns, err := httpd.StartNet(
		httpd.Config{Engine: e, Bug: httpd.LogCorruption, Breakpoint: bp, Timeout: to},
		httpd.NetConfig{ConnTimeout: 5 * time.Second, DrainTimeout: time.Second})
	if err != nil {
		return startFail("httpd start", err)
	}
	defer ns.Close()
	px, err := netchaos.Start(ns.Addr(), netchaos.Config{
		Seed: appkit.JitterSeed(),
		Faults: netchaos.Faults{
			Latency:       200 * time.Microsecond,
			LatencyJitter: 300 * time.Microsecond,
			ResetRate:     0.15,
		},
		OnFault: recordNetFaults(e),
	})
	if err != nil {
		return startFail("proxy start", err)
	}
	defer px.Close()

	rep := netchaos.RunLoad(netchaos.LoadConfig{
		Addr:    px.Addr(),
		Seed:    appkit.JitterSeed(),
		Clients: 8, Requests: 6,
		MakeRequest: func(client, request int) string {
			return fmt.Sprintf("GET /page/%d", client*100+request)
		},
		Client: netchaos.ClientConfig{
			Attempts: 3, AttemptTimeout: time.Second,
			RequestTimeout: 4 * time.Second, Backoff: 2 * time.Millisecond,
		},
	})

	res := appkit.Result{Status: appkit.OK}
	intact, _ := ns.LogLines()
	if served := ns.HandledCount(); int64(intact) < served {
		res = appkit.Result{Status: appkit.LogCorrupt,
			Detail: fmt.Sprintf("only %d/%d log lines intact under chaos", intact, served)}
	} else if rep.Degraded() {
		res.Detail = "degraded: " + rep.String()
	}
	res.BPHit = e.Stats(httpd.BPLogOffset).Hits() > 0
	return res
}

// netMySQLDeadlock runs the FLUSH-vs-DML lock-order deadlock over real
// sockets behind chaos (latency, resets, and one mid-run partition).
// Three INSERT clients and three FLUSH clients race with retries, so a
// reset that eats one protagonist's statement is survived by the next
// attempt; once a pair rendezvous, the crossing lock orders wedge the
// handlers server-side. The wait-graph supervisor watching the trial
// engine confirms the cycle (RunTrial classifies on its channel); the
// direct probe below is the in-row fallback so even a supervisor-less
// runner reports Stall, never OK, for a wedged server.
func netMySQLDeadlock(e *core.Engine, bp bool, to time.Duration) appkit.Result {
	ns, err := mysql.StartNet(
		mysql.Config{Engine: e, Bug: mysql.Deadlock, Breakpoint: bp, Timeout: to, StallAfter: StallDeadline},
		mysql.NetConfig{ConnTimeout: 5 * time.Second, DrainTimeout: 500 * time.Millisecond})
	if err != nil {
		return startFail("mysql start", err)
	}
	defer ns.Close()
	px, err := netchaos.Start(ns.Addr(), netchaos.Config{
		Seed: appkit.JitterSeed(),
		Faults: netchaos.Faults{
			Latency:       200 * time.Microsecond,
			LatencyJitter: 300 * time.Microsecond,
			ResetRate:     0.1,
			PartitionAt:   13, PartitionFor: 3,
		},
		OnFault: recordNetFaults(e),
	})
	if err != nil {
		return startFail("proxy start", err)
	}
	defer px.Close()

	res := appkit.RunWithDeadline(10*time.Second, func() appkit.Result {
		// Background SELECT traffic keeps the proxy busy (and, once the
		// deadlock forms, piles harmlessly behind the catalog lock until
		// its request timeouts fire — infra failures, retried and then
		// shed, never a verdict).
		bgDone := make(chan netchaos.LoadReport, 1)
		go func() {
			bgDone <- netchaos.RunLoad(netchaos.LoadConfig{
				Addr:    px.Addr(),
				Seed:    appkit.JitterSeed(),
				Clients: 4, Requests: 3,
				MakeRequest: func(int, int) string { return "SELECT COUNT(*) FROM t1" },
				Client: netchaos.ClientConfig{
					Attempts: 2, AttemptTimeout: 300 * time.Millisecond,
					RequestTimeout: time.Second, Backoff: 2 * time.Millisecond,
				},
			})
		}()

		protagonist := netchaos.ClientConfig{
			Attempts: 3, AttemptTimeout: 500 * time.Millisecond,
			RequestTimeout: 2 * time.Second, Backoff: 2 * time.Millisecond,
		}
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			for _, stmt := range []string{"INSERT INTO t1 VALUES ('net')", "FLUSH LOGS"} {
				wg.Add(1)
				go func(ord int, stmt string) {
					defer wg.Done()
					ccfg := protagonist
					ccfg.Addr = px.Addr()
					ccfg.Seed = appkit.DeriveSeed(appkit.JitterSeed(), int64(ord))
					netchaos.NewClient(ccfg).Do(stmt)
				}(i, stmt)
			}
		}
		wg.Wait()
		bg := <-bgDone

		// Wedge probe, direct to the server (no proxy): with the catalog
		// lock held across a blocked binlog append, a SELECT cannot
		// complete — a timeout here is the deadlock, not the network.
		probe := netchaos.NewClient(netchaos.ClientConfig{
			Addr: ns.Addr(), Seed: appkit.JitterSeed(),
			Attempts: 1, AttemptTimeout: 300 * time.Millisecond,
			RequestTimeout: 300 * time.Millisecond,
		})
		if _, err := probe.Do("SELECT COUNT(*) FROM t1"); err != nil {
			return appkit.Result{Status: appkit.Stall,
				Detail: "socket probe wedged behind FLUSH-vs-DML locks: " + err.Error()}
		}
		res := appkit.Result{Status: appkit.OK}
		if bg.Degraded() {
			res.Detail = "degraded: " + bg.String()
		}
		return res
	})
	res.BPHit = e.Stats(mysql.BPDeadlock).Hits() > 0
	return res
}

// netHTTPDDegradation is the graceful-degradation row: the httpd socket
// server with no bug armed, behind the full fault mix (latency, resets,
// truncation, half-open drops, throttling, slow-loris, and a
// partition). The application verdict must stay OK — every failure is
// absorbed by retries, budgets, and fail-fast — and only a total outage
// (zero completed requests) fails the row.
func netHTTPDDegradation(e *core.Engine, _ bool, to time.Duration) appkit.Result {
	// Breakpoints deliberately unarmed: this row measures the transport
	// discipline, so any non-OK outcome would be a misclassified
	// infrastructure fault.
	ns, err := httpd.StartNet(
		httpd.Config{Engine: e, Bug: httpd.LogCorruption, Breakpoint: false, Timeout: to},
		httpd.NetConfig{ConnTimeout: 5 * time.Second, DrainTimeout: time.Second})
	if err != nil {
		return startFail("httpd start", err)
	}
	defer ns.Close()
	px, err := netchaos.Start(ns.Addr(), netchaos.Config{
		Seed: appkit.JitterSeed(),
		Faults: netchaos.Faults{
			Latency:       300 * time.Microsecond,
			LatencyJitter: 500 * time.Microsecond,
			ResetRate:     0.12,
			TruncateRate:  0.10,
			HalfOpenRate:  0.08,
			ThrottleRate:  0.10,
			ThrottleBps:   8 << 10,
			SlowLorisRate: 0.08,
			PartitionAt:   30, PartitionFor: 4,
		},
		OnFault: recordNetFaults(e),
	})
	if err != nil {
		return startFail("proxy start", err)
	}
	defer px.Close()

	rep := netchaos.RunLoad(netchaos.LoadConfig{
		Addr:    px.Addr(),
		Seed:    appkit.JitterSeed(),
		Clients: 12, Requests: 4,
		MakeRequest: func(client, request int) string {
			return fmt.Sprintf("GET /page/%d", client*100+request)
		},
		Client: netchaos.ClientConfig{
			Attempts: 3, AttemptTimeout: 400 * time.Millisecond,
			RequestTimeout: 1500 * time.Millisecond, Backoff: 2 * time.Millisecond,
			RetryBudget: 24,
		},
	})
	if rep.Stats.OK == 0 {
		return appkit.Result{Status: appkit.TestFail,
			Detail: "total outage under chaos: " + rep.String()}
	}
	res := appkit.Result{Status: appkit.OK, Detail: rep.String()}
	if rep.Degraded() {
		res.Detail = "degraded: " + rep.String()
	}
	return res
}

// NetLoadRows returns the network-chaos row specs. Row indices are
// campaign checkpoint keys: new rows only ever go at the end.
func NetLoadRows() []RowSpec {
	return []RowSpec{
		{Benchmark: "httpd (socket)", BugLabel: "log corruption",
			Comments: "chaos: latency+resets", Run: netHTTPDCorruption},
		{Benchmark: "mysql (socket)", BugLabel: "deadlock",
			Comments: "chaos: latency+resets+partition", Run: netMySQLDeadlock},
		{Benchmark: "httpd (socket)", BugLabel: "degradation",
			Comments: "chaos: full fault mix, no bug armed", Run: netHTTPDDegradation},
	}
}

// netloadSpecs returns the addressable trial specs of the netload
// table: one breakpoint-armed measurement per row (the degradation row
// ignores the flag — it never arms triggers).
func netloadSpecs(runs int) []TrialSpec {
	rows := NetLoadRows()
	specs := make([]TrialSpec, 0, len(rows))
	for i, row := range rows {
		timeout := row.Timeout
		if timeout == 0 {
			timeout = ShortPause
		}
		specs = append(specs, TrialSpec{
			Key:   TrialKey{Table: "netload", Row: i, Variant: VariantWith},
			Label: row.Benchmark + "/" + row.BugLabel,
			Runs:  runs, Breakpoint: true, Timeout: timeout, Run: row.Run})
	}
	return specs
}

// NetLoadTable measures the chaos rows.
func NetLoadTable(runs int, run Runner) Table {
	t := Table{
		Title:   "Network chaos: socket servers under fault injection",
		Headers: []string{"Benchmark", "Error", "MTTE(s)", "Reproduced", "Comments"},
	}
	specs := netloadSpecs(runs)
	for i, row := range NetLoadRows() {
		m := run(specs[i])
		t.Rows = append(t.Rows, []string{
			partialMark(row.Benchmark, m),
			row.BugLabel,
			fmtDur(m.MeanTimeToError),
			fmt.Sprintf("%d/%d", m.Buggy, m.Completed),
			row.Comments,
		})
	}
	return t
}
