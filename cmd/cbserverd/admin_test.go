package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbreak/internal/apps/appboot"
	"cbreak/internal/core"
	"cbreak/internal/guard"
	"cbreak/internal/netchaos"
	"cbreak/internal/telemetry"
	"cbreak/internal/waitgraph"
)

// startDaemon boots the full serving stack (engine, wait-graph
// supervisor, a supervised in-process httpd host, transparent chaos
// proxy, admin mux) on ephemeral ports.
func startDaemon(t *testing.T) (*daemon, *httptest.Server) {
	t.Helper()
	d := buildDaemon(t)
	ts := httptest.NewServer(d.mux())
	t.Cleanup(ts.Close)
	return d, ts
}

// buildDaemon assembles the daemon without an admin listener (tests
// that need a real http.Server attach their own). Tweaks adjust the
// host supervision config (probing is off by default for test speed).
func buildDaemon(t *testing.T, tweaks ...func(*appboot.HostConfig)) *daemon {
	t.Helper()
	e := core.NewEngine()
	sup := waitgraph.New(e, waitgraph.Config{})
	sup.Start()
	t.Cleanup(sup.Stop)

	spec := appboot.Spec{App: "httpd", Bug: "none", Pause: 10 * time.Millisecond}
	hosts := appboot.NewSupervisor()
	cfg := appboot.HostConfig{
		Name: "httpd", Launch: appboot.InProcLauncher(e, spec),
		ProbeInterval: -1, Seed: 1,
	}
	for _, tweak := range tweaks {
		tweak(&cfg)
	}
	hosts.Add(cfg)
	if err := hosts.StartAll(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hosts.StopAll)
	front := hosts.Host("httpd")

	px, err := netchaos.Start(front.Addr(), netchaos.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })

	reg := telemetry.NewRegistry()
	e.RegisterMetrics(reg)
	sup.RegisterMetrics(reg)
	hosts.RegisterMetrics(reg)
	reg.WireBus("engine", e.Bus())
	d := &daemon{e: e, sup: sup, reg: reg, hosts: hosts, specs: []appboot.Spec{spec},
		front: front, px: px, started: time.Now()}
	d.registerServingMetrics(reg)
	return d
}

func get(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	return string(body)
}

func post(t *testing.T, ts *httptest.Server, path string, params url.Values) string {
	t.Helper()
	resp, err := http.PostForm(ts.URL+path, params)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d: %s", path, resp.StatusCode, body)
	}
	return string(body)
}

// roundtrip drives one request line through the chaos proxy to the app.
func roundtrip(t *testing.T, addr, req string) string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	fmt.Fprintf(conn, "%s\n", req)
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("roundtrip %q: %v", req, err)
	}
	return strings.TrimSpace(line)
}

func TestAdminSurface(t *testing.T) {
	d, ts := startDaemon(t)

	if got := get(t, ts, "/healthz"); !strings.Contains(got, "ok") {
		t.Fatalf("healthz = %q", got)
	}

	// One real request through the proxy, so serving counters move.
	if resp := roundtrip(t, d.px.Addr(), "GET /page/1"); !strings.HasPrefix(resp, "200 ") {
		t.Fatalf("proxied request = %q", resp)
	}

	metrics := get(t, ts, "/metrics")
	for _, want := range []string{
		"cbreak_engine_enabled 1",
		"cbreak_uptime_seconds",
		"cbreak_proxy_connections_total 1",
		`cbreak_app_served_requests_total{app="httpd"} 1`,
		"# TYPE cbreak_bus_records_total counter",
		`cbreak_bus_dropped_total{bus="engine"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	var status map[string]any
	if err := json.Unmarshal([]byte(get(t, ts, "/status")), &status); err != nil {
		t.Fatal(err)
	}
	if status["app"] != "httpd" || status["served"].(float64) < 1 {
		t.Fatalf("status = %v", status)
	}

	// Live toggle: disable, observe in /breakpoints and /metrics,
	// re-enable — no restart anywhere.
	post(t, ts, "/breakpoints/toggle", url.Values{"name": {"live.bp"}, "enabled": {"false"}})
	if d.e.BreakpointEnabled("live.bp") {
		t.Fatal("toggle did not disable the breakpoint")
	}
	if bps := get(t, ts, "/breakpoints"); !strings.Contains(bps, `"Name": "live.bp"`) {
		t.Errorf("breakpoints listing missing toggled name: %s", bps)
	}
	if m := get(t, ts, "/metrics"); !strings.Contains(m, `cbreak_bp_enabled{breakpoint="live.bp"} 0`) {
		t.Error("metrics do not show the disabled breakpoint")
	}
	post(t, ts, "/breakpoints/toggle", url.Values{"name": {"live.bp"}, "enabled": {"true"}})
	if !d.e.BreakpointEnabled("live.bp") {
		t.Fatal("toggle did not re-enable the breakpoint")
	}

	// Live tuning lands in the engine and the exposition.
	post(t, ts, "/tune/overload", url.Values{"high-water": {"64"}, "soft-water": {"16"}})
	if ov, ok := d.e.Overload(); !ok || ov.GlobalHighWater != 64 || ov.SoftWater != 16 {
		t.Fatalf("overload tune not applied: %+v ok=%v", ov, ok)
	}
	if m := get(t, ts, "/metrics"); !strings.Contains(m, "cbreak_overload_global_high_water 64") {
		t.Error("tuned high-water mark not exposed")
	}
	post(t, ts, "/tune/overload", url.Values{"clear": {"true"}})
	if _, ok := d.e.Overload(); ok {
		t.Fatal("overload clear not applied")
	}
	post(t, ts, "/tune/overload", url.Values{"timeout-rate": {"0.5"}})
	if ov, ok := d.e.Overload(); !ok || ov.TimeoutRate != 0.5 || ov.GlobalHighWater != 0 {
		t.Fatalf("timeout-rate tune not applied: %+v ok=%v", ov, ok)
	}
	if st := get(t, ts, "/status"); !strings.Contains(st, `"TimeoutRate": 0.5`) {
		t.Errorf("status does not show the tuned timeout rate: %s", st)
	}
	post(t, ts, "/tune/overload", url.Values{"clear": {"true"}})

	// Releasing a goroutine that is not postponed reports false.
	out := post(t, ts, "/release", url.Values{"breakpoint": {"live.bp"}, "gid": {"12345"}})
	if !strings.Contains(out, `"released": false`) {
		t.Fatalf("bogus release = %s", out)
	}

	get(t, ts, "/waiters")
	get(t, ts, "/incidents")
	get(t, ts, "/reports")
}

// TestHealthzHonest: /healthz answers 200 normally, 503 while the
// overload policy has accept loops shedding, and 503 while draining —
// a balancer must never route load a shedding or draining daemon will
// refuse.
func TestHealthzHonest(t *testing.T) {
	d, ts := startDaemon(t)
	if got := get(t, ts, "/healthz"); !strings.Contains(got, "ok") {
		t.Fatalf("healthz = %q", got)
	}

	// Shedding: install a high-water of 1 and park one goroutine
	// postponed at a breakpoint — the same condition the accept loops
	// shed on.
	d.e.SetOverloadConfig(&core.OverloadConfig{GlobalHighWater: 1})
	obj := new(int)
	release := make(chan struct{})
	go func() {
		d.e.TriggerOutcome(core.NewConflictTrigger("hz.bp", obj), true,
			core.Options{Timeout: 5 * time.Second})
		close(release)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for d.e.PostponedTotal() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "shedding") {
		t.Fatalf("healthz while shedding = %d %q, want 503 shedding", resp.StatusCode, body)
	}
	d.e.ForceRelease("hz.bp", d.e.PostponedWaiters()[0].GID, guard.KindForceRelease, "test cleanup")
	<-release
	d.e.SetOverloadConfig(nil)
	if got := get(t, ts, "/healthz"); !strings.Contains(got, "ok") {
		t.Fatalf("healthz after release = %q", got)
	}

	// Draining beats everything.
	d.draining.Store(true)
	defer d.draining.Store(false)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
}

// TestReadyzSelfHealing kills the hosted app's socket out from under
// the supervisor: probes notice, the host restarts the app on its
// pinned address, /readyz dips to 503 and recovers, and the restart
// lands in the supervisor counter family on /metrics.
func TestReadyzSelfHealing(t *testing.T) {
	d := buildDaemon(t, func(cfg *appboot.HostConfig) {
		cfg.ProbeInterval = 10 * time.Millisecond
		cfg.ProbeTimeout = 100 * time.Millisecond
		cfg.ProbeFailures = 2
		cfg.RestartBackoff = 20 * time.Millisecond
		cfg.MaxRestartBackoff = 50 * time.Millisecond
	})
	ts := httptest.NewServer(d.mux())
	t.Cleanup(ts.Close)
	if got := get(t, ts, "/readyz"); !strings.Contains(got, "ready") {
		t.Fatalf("readyz = %q", got)
	}

	// Kill the app's listener directly (not through the host): the
	// supervisor must discover the wedge by probing.
	d.front.Instance().Kill()
	deadline := time.Now().Add(10 * time.Second)
	sawDown := false
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			sawDown = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawDown {
		t.Fatal("readyz never reported the killed app")
	}
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp := roundtrip(t, d.front.Addr(), "GET /healed"); !strings.HasPrefix(resp, "200 ") {
		t.Fatalf("restarted app answered %q", resp)
	}
	if m := get(t, ts, "/metrics"); !strings.Contains(m, `cbreak_supervisor_restarts_total{app="httpd"}`) {
		t.Fatalf("metrics missing supervisor restart counter:\n%s", m)
	}
	var status map[string]any
	if err := json.Unmarshal([]byte(get(t, ts, "/status")), &status); err != nil {
		t.Fatal(err)
	}
	apps := status["apps"].([]any)
	if len(apps) != 1 {
		t.Fatalf("status apps = %v", apps)
	}
	row := apps[0].(map[string]any)
	if row["restarts"].(float64) < 1 || row["state"] != "up" {
		t.Fatalf("status app row = %v, want restarts >= 1 and up", row)
	}
}

// TestPartitionEndpoint: POST /chaos/partition severs proxied service
// for the window, then service restores.
func TestPartitionEndpoint(t *testing.T) {
	d, ts := startDaemon(t)
	if resp := roundtrip(t, d.px.Addr(), "GET /pre"); !strings.HasPrefix(resp, "200 ") {
		t.Fatalf("pre-partition = %q", resp)
	}
	post(t, ts, "/chaos/partition", url.Values{"duration": {"400ms"}})
	if _, err := tryRoundtrip(d.px.Addr(), "GET /during"); err == nil {
		t.Fatal("request succeeded inside the partition window")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, err := tryRoundtrip(d.px.Addr(), "GET /after"); err == nil && strings.HasPrefix(resp, "200 ") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service never restored after the partition window")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Bad requests are rejected.
	resp, err := http.PostForm(ts.URL+"/chaos/partition", url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partition without duration = %d, want 400", resp.StatusCode)
	}
}

// TestReviveEndpointValidation: unknown apps are a 400.
func TestReviveEndpointValidation(t *testing.T) {
	_, ts := startDaemon(t)
	resp, err := http.PostForm(ts.URL+"/apps/revive", url.Values{"name": {"nope"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("revive unknown = %d, want 400", resp.StatusCode)
	}
}

// tryRoundtrip is roundtrip without the test fatals.
func tryRoundtrip(addr, req string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Second))
	fmt.Fprintf(conn, "%s\n", req)
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(line), nil
}

// TestShutdownOrderingUnderConcurrentAdmin is the drain regression
// test: a real admin http.Server is shut down in exactly main's drain
// order — draining flag, sink sync point, admin Shutdown, proxy close,
// hosts stop, supervisor stop — while concurrent admin requests
// (scrapes, status, a live NDJSON stream) hammer it. Run under -race
// this pins the teardown against the serving paths; the draining flag
// must be observable as /healthz 503 before admin intake stops.
func TestShutdownOrderingUnderConcurrentAdmin(t *testing.T) {
	d := buildDaemon(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: d.mux()}
	serveDone := make(chan struct{})
	go func() { srv.Serve(ln); close(serveDone) }()
	base := "http://" + ln.Addr().String()

	stopLoad := make(chan struct{})
	var workers sync.WaitGroup
	var drainRefusals atomic.Int64
	for _, path := range []string{"/metrics", "/status", "/healthz", "/breakpoints", "/waiters"} {
		workers.Add(1)
		go func(path string) {
			defer workers.Done()
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				resp, err := http.Get(base + path)
				if err != nil {
					return // listener gone: drain completed under us
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if path == "/healthz" && resp.StatusCode == http.StatusServiceUnavailable {
					drainRefusals.Add(1)
				}
			}
		}(path)
	}
	// One live stream subscriber: Shutdown must not wait forever on it
	// (main bounds the drain and falls back to Close).
	workers.Add(1)
	go func() {
		defer workers.Done()
		resp, err := http.Get(base + "/stream")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		buf := make([]byte, 256)
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				return
			}
		}
	}()
	// Keep records flowing onto the bus during the whole drain.
	workers.Add(1)
	go func() {
		defer workers.Done()
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			d.e.RecordIncident(guard.KindStall, "drain.bp", uint64(i), "drain load")
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(50 * time.Millisecond) // let the load loops get going

	// main's drain order.
	d.draining.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for drainRefusals.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if drainRefusals.Load() == 0 {
		t.Error("no /healthz 503 observed while draining with admin intake still open")
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		srv.Close()
	}
	d.px.Close()
	d.hosts.StopAll()
	d.sup.Stop()
	close(stopLoad)
	workers.Wait()
	<-serveDone
	for _, h := range d.hosts.Hosts() {
		if h.State() != appboot.StateStopped {
			t.Fatalf("host state %v after drain", h.State())
		}
	}
}

func TestStreamDeliversLiveRecords(t *testing.T) {
	d, ts := startDaemon(t)

	resp, err := http.Get(ts.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}

	// A request through the proxy with the log-corruption breakpoint
	// names armed produces engine events... the "none" bug arms no
	// breakpoints, so drive the bus directly through the engine instead:
	// a trigger arrival is the canonical record source.
	go d.e.TriggerOutcome(core.NewPredTrigger("stream.bp", nil, nil, nil), true,
		core.Options{Timeout: 5 * time.Millisecond})

	lineCh := make(chan string, 1)
	go func() {
		line, err := bufio.NewReader(resp.Body).ReadString('\n')
		if err == nil {
			lineCh <- line
		}
	}()
	select {
	case line := <-lineCh:
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		if rec["kind"] != "engine-event" || rec["breakpoint"] != "stream.bp" {
			t.Fatalf("stream record = %v", rec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no record arrived on the stream")
	}
}
