package main

// The admin HTTP surface: every handler reads or writes engine state
// through the same public accessors the in-process drivers use, so the
// control plane adds no new mutation paths — a live toggle is exactly
// core.Engine.SetBreakpointEnabled, a live release exactly
// core.Engine.ForceRelease.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"cbreak/internal/apps/appboot"
	"cbreak/internal/core"
	"cbreak/internal/guard"
	"cbreak/internal/journal/sink"
	"cbreak/internal/netchaos"
	"cbreak/internal/telemetry"
	"cbreak/internal/waitgraph"
)

// daemon is the serving state shared by every admin handler.
type daemon struct {
	e        *core.Engine
	sup      *waitgraph.Supervisor
	reg      *telemetry.Registry
	hosts    *appboot.Supervisor
	specs    []appboot.Spec
	front    *appboot.Host // the host the chaos proxy targets
	px       *netchaos.Proxy
	snk      *sink.Sink // nil without -durable-events
	started  time.Time
	draining atomic.Bool
}

// frontApp returns the front host's in-process App (nil in -supervise
// mode, where counters live in the worker's own journal and /metrics).
func (d *daemon) frontApp() *appboot.App {
	if inst := d.front.Instance(); inst != nil {
		return appboot.InstanceApp(inst)
	}
	return nil
}

// bugFor looks up the armed bug for an app name.
func (d *daemon) bugFor(app string) string {
	for _, s := range d.specs {
		if s.App == app {
			return s.Bug
		}
	}
	return ""
}

// registerServingMetrics adds the app/proxy collectors to the registry.
// Served/shed counters are visible only for in-process apps; supervised
// worker processes account their own serving in their own journals,
// while their supervision (state, restarts, crashes, quarantines) is
// exported here by the host supervisor's collector.
func (d *daemon) registerServingMetrics(reg *telemetry.Registry) {
	reg.RegisterCollector(func(emit func(telemetry.Sample)) {
		emit(telemetry.Sample{Desc: telemetry.DescUptime, Value: time.Since(d.started).Seconds()})
		for _, h := range d.hosts.Hosts() {
			inst := h.Instance()
			if inst == nil {
				continue
			}
			if app := appboot.InstanceApp(inst); app != nil {
				emit(telemetry.Sample{Desc: telemetry.DescAppServed,
					Labels: []string{app.Name}, Value: float64(app.Served())})
				emit(telemetry.Sample{Desc: telemetry.DescAppShed,
					Labels: []string{app.Name}, Value: float64(app.ShedCount())})
			}
		}
		emit(telemetry.Sample{Desc: telemetry.DescProxyConns, Value: float64(d.px.Connections())})
		for _, k := range netchaos.Kinds() {
			emit(telemetry.Sample{Desc: telemetry.DescProxyFaults,
				Labels: []string{k.String()}, Value: float64(d.px.FaultCount(k))})
		}
	})
}

// mux routes the admin API.
func (d *daemon) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/healthz", d.handleHealthz)
	m.HandleFunc("/readyz", d.handleReadyz)
	m.HandleFunc("/metrics", d.handleMetrics)
	m.HandleFunc("/stream", d.handleStream)
	m.HandleFunc("/status", d.handleStatus)
	m.HandleFunc("/breakpoints", d.handleBreakpoints)
	m.HandleFunc("/breakpoints/toggle", d.handleToggle)
	m.HandleFunc("/engine", d.handleEngine)
	m.HandleFunc("/tune/overload", d.handleTuneOverload)
	m.HandleFunc("/release", d.handleRelease)
	m.HandleFunc("/waiters", d.handleWaiters)
	m.HandleFunc("/incidents", d.handleIncidents)
	m.HandleFunc("/reports", d.handleReports)
	m.HandleFunc("/chaos/partition", d.handlePartition)
	m.HandleFunc("/apps/revive", d.handleRevive)
	return m
}

// handleHealthz is honest liveness: 503 while the daemon is draining
// (a balancer must stop sending load the drain will sever) and 503
// while the postponed population is at the engine's high-water mark,
// where the accept loops shed (the daemon is alive but refusing the
// very work a health-checked pool would route to it). Plain 200 "ok"
// otherwise.
func (d *daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if d.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if reason, shed := d.e.AtHighWater(); shed {
		http.Error(w, "shedding: "+reason, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleReadyz gates readiness on the hosted apps: 200 only when every
// supervised app is up (not restarting, not quarantined) and the daemon
// is not draining.
func (d *daemon) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if d.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if !d.hosts.AllUp() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"ready": false, "apps": d.hosts.Statuses()})
		return
	}
	fmt.Fprintln(w, "ready")
}

// handlePartition severs the chaos proxy for a window: every live
// proxied connection is reset and new ones are refused until the window
// closes — the network-partition scenario's trigger.
func (d *daemon) handlePartition(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	dur, err := time.ParseDuration(r.FormValue("duration"))
	if err != nil || dur <= 0 {
		http.Error(w, "duration required (e.g. ?duration=2s)", http.StatusBadRequest)
		return
	}
	dropped := d.px.ForcePartition(dur)
	writeJSON(w, map[string]any{"partition_for": dur.String(), "dropped_connections": dropped})
}

// handleRevive lifts a quarantine on the named app.
func (d *daemon) handleRevive(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	h := d.hosts.Host(r.FormValue("name"))
	if h == nil {
		http.Error(w, "unknown app (see /status)", http.StatusBadRequest)
		return
	}
	h.Revive()
	writeJSON(w, map[string]any{"app": r.FormValue("name"), "state": h.State().String()})
}

func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	d.reg.WritePrometheus(w)
}

// handleStream serves the live NDJSON telemetry feed: one JSON object
// per bus record until the client disconnects. The subscription's
// bounded buffer means a slow consumer drops records (counted on the
// bus) instead of stalling the engine.
func (d *daemon) handleStream(w http.ResponseWriter, r *http.Request) {
	sub := d.e.Bus().Subscribe(1024)
	defer sub.Cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case rec := <-sub.C():
			if err := telemetry.WriteNDJSON(w, rec); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}
}

func (d *daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	ov, ovSet := d.e.Overload()
	// Per-app supervision rows, with the armed bug joined in.
	type appStatus struct {
		appboot.HostStatus
		Bug string `json:"bug"`
	}
	hostRows := d.hosts.Statuses()
	rows := make([]appStatus, 0, len(hostRows))
	for _, hs := range hostRows {
		rows = append(rows, appStatus{HostStatus: hs, Bug: d.bugFor(hs.Name)})
	}
	st := map[string]any{
		// Legacy single-app keys describe the front app (what the proxy
		// targets); the full supervisor picture is under "apps".
		"app":            d.front.Status().Name,
		"bug":            d.bugFor(d.front.Status().Name),
		"app_addr":       d.front.Addr(),
		"apps":           rows,
		"ready":          d.hosts.AllUp() && !d.draining.Load(),
		"draining":       d.draining.Load(),
		"supervised":     true,
		"proxy_addr":     d.px.Addr(),
		"uptime_seconds": time.Since(d.started).Seconds(),
		"engine_enabled": d.e.Enabled(),
		"postponed":      d.e.PostponedTotal(),
		"proxy_conns":    d.px.Connections(),
		"proxy_faults":   d.px.TotalFaults(),
		"durable_sink":   d.e.DurableSinkInstalled(),
		"scans":          d.sup.Scans(),
		"bus_dropped":    d.e.Bus().Dropped(),
	}
	if app := d.frontApp(); app != nil {
		st["served"] = app.Served()
		st["shed"] = app.ShedCount()
	}
	if ovSet {
		st["overload"] = ov
	}
	writeJSON(w, st)
}

// breakpointView is one row of GET /breakpoints.
type breakpointView struct {
	core.StatsSnapshot
	Enabled   bool
	Postponed int
}

func (d *daemon) handleBreakpoints(w http.ResponseWriter, r *http.Request) {
	snaps := d.e.SnapshotAll()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Name < snaps[j].Name })
	out := make([]breakpointView, 0, len(snaps))
	for _, s := range snaps {
		out = append(out, breakpointView{
			StatsSnapshot: s,
			Enabled:       d.e.BreakpointEnabled(s.Name),
			Postponed:     d.e.PostponedCount(s.Name),
		})
	}
	writeJSON(w, out)
}

// handleToggle registers, enables, or disables one breakpoint live.
// Toggling an unseen name registers it (its shard is created), so an
// operator can pre-disable a breakpoint before the first arrival.
func (d *daemon) handleToggle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	name := r.FormValue("name")
	if name == "" {
		http.Error(w, "name required", http.StatusBadRequest)
		return
	}
	enabled, err := strconv.ParseBool(r.FormValue("enabled"))
	if err != nil {
		http.Error(w, "enabled must be true or false", http.StatusBadRequest)
		return
	}
	d.e.SetBreakpointEnabled(name, enabled)
	writeJSON(w, map[string]any{"breakpoint": name, "enabled": d.e.BreakpointEnabled(name)})
}

func (d *daemon) handleEngine(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	enabled, err := strconv.ParseBool(r.FormValue("enabled"))
	if err != nil {
		http.Error(w, "enabled must be true or false", http.StatusBadRequest)
		return
	}
	d.e.SetEnabled(enabled)
	writeJSON(w, map[string]any{"engine_enabled": d.e.Enabled()})
}

// handleTuneOverload replaces the engine's overload policy live, the
// timeout-rate trip included (installing it discards every
// breakpoint's trip state). Omitted parameters keep the
// currently-installed value; clear=true removes the policy entirely.
func (d *daemon) handleTuneOverload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if ok, _ := strconv.ParseBool(r.FormValue("clear")); ok {
		d.e.SetOverloadConfig(nil)
		writeJSON(w, map[string]any{"overload": nil})
		return
	}
	cfg, _ := d.e.Overload() // zero value when none installed
	if err := firstErr(
		intParam(r, "high-water", &cfg.GlobalHighWater),
		intParam(r, "soft-water", &cfg.SoftWater),
		intParam(r, "max-per-shard", &cfg.MaxPerShard),
		durParam(r, "min-budget", &cfg.MinBudget),
		floatParam(r, "timeout-rate", &cfg.TimeoutRate),
	); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	d.e.SetOverloadConfig(&cfg)
	writeJSON(w, map[string]any{"overload": cfg})
}

// handleRelease force-releases one postponed goroutine with a timeout
// outcome — the operator's manual override when a victim is wedged and
// the supervisor has not claimed it.
func (d *daemon) handleRelease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	name := r.FormValue("breakpoint")
	gid, err := strconv.ParseUint(r.FormValue("gid"), 10, 64)
	if name == "" || err != nil {
		http.Error(w, "breakpoint and numeric gid required (see GET /waiters)", http.StatusBadRequest)
		return
	}
	released := d.e.ForceRelease(name, gid, guard.KindForceRelease,
		fmt.Sprintf("admin force-release of gid %d", gid))
	writeJSON(w, map[string]any{"breakpoint": name, "gid": gid, "released": released})
}

func (d *daemon) handleWaiters(w http.ResponseWriter, r *http.Request) {
	ws := d.e.PostponedWaiters()
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Breakpoint != ws[j].Breakpoint {
			return ws[i].Breakpoint < ws[j].Breakpoint
		}
		return ws[i].GID < ws[j].GID
	})
	writeJSON(w, ws)
}

func (d *daemon) handleIncidents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"counts":    d.e.IncidentCounts(),
		"incidents": d.e.Incidents(),
	})
}

func (d *daemon) handleReports(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, d.sup.Reports())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// intParam, floatParam, and durParam overwrite *dst only when the query
// parameter is present, so tuning endpoints merge over current values.
func intParam(r *http.Request, key string, dst *int) error {
	v := r.FormValue(key)
	if v == "" {
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	*dst = n
	return nil
}

func floatParam(r *http.Request, key string, dst *float64) error {
	v := r.FormValue(key)
	if v == "" {
		return nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	*dst = f
	return nil
}

func durParam(r *http.Request, key string, dst *time.Duration) error {
	v := r.FormValue(key)
	if v == "" {
		return nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	*dst = d
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
