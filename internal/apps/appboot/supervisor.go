package appboot

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/telemetry"
)

// This file is the self-healing supervision layer: each hosted app runs
// behind a Host that launches it (in-process or as a re-exec'd worker
// process, see proc.go), health-probes it over its own socket protocol,
// restarts it with jittered exponential backoff when it crashes or
// wedges, and — when it crash-loops — stops burning restarts and
// quarantines it so the rest of the daemon stays useful. The state
// machine is deliberately small:
//
//	        launch ok                 crash / probe wedge
//	  ────▶ StateUp ────────────────▶ StateRestarting ──▶ (backoff, relaunch)
//	           │                            │
//	           │ Stop()                     │ threshold crashes inside window
//	           ▼                            ▼
//	      StateStopped ◀──── Stop() ── StateQuarantined
//
// Quarantine is terminal until an operator intervenes (Revive): a
// supervisor that restarts a deterministic crasher forever is just a
// hot loop with extra telemetry.

// State is a Host's position in the supervision state machine.
type State int32

const (
	// StateUp: the instance is launched and passing probes.
	StateUp State = iota
	// StateRestarting: the last instance died; the host is in backoff
	// before the relaunch.
	StateRestarting
	// StateQuarantined: the instance crash-looped past the threshold;
	// the host has given up restarting it.
	StateQuarantined
	// StateStopped: the host was stopped deliberately.
	StateStopped
)

// String returns the state label used by /status and the scenarios.
func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateRestarting:
		return "restarting"
	case StateQuarantined:
		return "quarantined"
	case StateStopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// Instance is one launched incarnation of a hosted app — either an
// in-process socket server or a child worker process.
type Instance interface {
	// Addr is the instance's listen address.
	Addr() string
	// Pid is the OS process id (0 for in-process instances).
	Pid() int
	// Done is closed when the instance dies on its own. In-process
	// instances may return nil (they only die via probes or Stop).
	Done() <-chan struct{}
	// ExitErr reports why the instance died (valid after Done).
	ExitErr() error
	// Stop tears the instance down gracefully.
	Stop() error
	// Kill tears the instance down immediately (wedged instance).
	Kill() error
}

// Launcher launches one instance. prevAddr is empty on the first launch
// and the previous instance's address afterwards: launchers must pin the
// relaunch to it so an app keeps its address across restarts (peers hold
// the address, not the incarnation).
type Launcher func(prevAddr string) (Instance, error)

// HostEvent is one supervision transition, for logs and scenarios.
type HostEvent struct {
	App    string
	Kind   string // launched|crash|probe-failure|wedged|restarting|quarantined|stopped
	Detail string
}

// String formats the event as one log line.
func (ev HostEvent) String() string {
	if ev.Detail == "" {
		return fmt.Sprintf("supervisor: app %s %s", ev.App, ev.Kind)
	}
	return fmt.Sprintf("supervisor: app %s %s: %s", ev.App, ev.Kind, ev.Detail)
}

// HostConfig parameterizes one Host.
type HostConfig struct {
	// Name is the hosted app's name (telemetry label, /status key).
	Name string
	// Launch launches one incarnation.
	Launch Launcher
	// RestartBackoff is the base restart delay; each consecutive crash
	// doubles it up to MaxRestartBackoff, jittered down to avoid
	// synchronized relaunch herds. Defaults 100ms / 5s.
	RestartBackoff    time.Duration
	MaxRestartBackoff time.Duration
	// CrashLoopWindow and CrashLoopThreshold define a crash loop: at
	// least Threshold crashes inside one Window quarantines the app.
	// Defaults 30s / 5. An instance that stays up a full Window resets
	// the crash streak.
	CrashLoopWindow    time.Duration
	CrashLoopThreshold int
	// ProbeInterval is the health-probe period (default 500ms; negative
	// disables probing). ProbeTimeout bounds one probe round trip
	// (default 1s); ProbeFailures consecutive failures declare the
	// instance wedged and it is killed and restarted (default 3) — the
	// SIGSTOP case, where the process is alive but the socket is dead.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	ProbeFailures int
	// Probe overrides the health probe (default: protocol line probe —
	// send one line, any answered line is healthy).
	Probe func(addr string, timeout time.Duration) error
	// Seed derives the backoff jitter stream (reproducible chaos runs).
	Seed int64
	// OnEvent, when set, observes every transition (called on the
	// supervision goroutine; keep it fast).
	OnEvent func(HostEvent)
}

func (cfg *HostConfig) fill() {
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = 100 * time.Millisecond
	}
	if cfg.MaxRestartBackoff <= 0 {
		cfg.MaxRestartBackoff = 5 * time.Second
	}
	if cfg.CrashLoopWindow <= 0 {
		cfg.CrashLoopWindow = 30 * time.Second
	}
	if cfg.CrashLoopThreshold <= 0 {
		cfg.CrashLoopThreshold = 5
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.ProbeFailures <= 0 {
		cfg.ProbeFailures = 3
	}
	if cfg.Probe == nil {
		cfg.Probe = LineProbe
	}
}

// LineProbe is the default health probe: dial, send one protocol line,
// and require any answered line inside the timeout. Both hosted apps
// answer unparseable lines with an error line without taking any app
// locks, so the probe is cheap, lock-free on the server, and still
// end-to-end: a SIGSTOPped process accepts the dial (kernel backlog)
// but never answers, which is exactly the wedge the probe must catch.
func LineProbe(addr string, timeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(conn, "PING supervisor\n"); err != nil {
		return err
	}
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		return fmt.Errorf("no probe answer: %w", err)
	}
	return nil
}

// HostStatus is one host's observable state (for /status and tests).
type HostStatus struct {
	Name          string `json:"name"`
	State         string `json:"state"`
	Addr          string `json:"addr"`
	Pid           int    `json:"pid,omitempty"`
	Restarts      int64  `json:"restarts"`
	Crashes       int64  `json:"crashes"`
	Quarantines   int64  `json:"quarantines"`
	ProbeFailures int64  `json:"probe_failures"`
	LastExit      string `json:"last_exit,omitempty"`
}

// Host supervises one app through crashes, wedges, and restarts.
type Host struct {
	cfg    HostConfig
	jitter *appkit.Stream

	//cbvet:ignore rawsync guards supervisor bookkeeping, not an application lock in any modeled deadlock
	mu       sync.Mutex
	inst     Instance
	addr     string // pinned across restarts
	lastExit string
	state    atomic.Int32

	restarts      atomic.Int64
	crashes       atomic.Int64
	quarantines   atomic.Int64
	probeFailures atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	revive   chan struct{}
	done     chan struct{}
}

// NewHost builds (but does not start) a host.
func NewHost(cfg HostConfig) *Host {
	cfg.fill()
	var nameOrd int64
	for _, b := range []byte(cfg.Name) {
		nameOrd = nameOrd*31 + int64(b)
	}
	return &Host{
		cfg:    cfg,
		jitter: appkit.NewStream(appkit.DeriveSeed(cfg.Seed, nameOrd)),
		stop:   make(chan struct{}),
		revive: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// Start launches the first instance synchronously — a boot-time failure
// surfaces to the caller, not to the restart loop — then hands the
// lifecycle to the supervision goroutine.
func (h *Host) Start() error {
	inst, err := h.cfg.Launch("")
	if err != nil {
		close(h.done)
		return fmt.Errorf("app %s: first launch: %w", h.cfg.Name, err)
	}
	h.mu.Lock()
	h.inst, h.addr = inst, inst.Addr()
	h.mu.Unlock()
	h.state.Store(int32(StateUp))
	h.event("launched", fmt.Sprintf("addr=%s pid=%d", inst.Addr(), inst.Pid()))
	go h.run(inst)
	return nil
}

// Stop tears the host down and waits for the supervision goroutine.
func (h *Host) Stop() {
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

// Revive lifts a quarantine: the host re-enters the restart path with a
// fresh crash streak. No-op outside StateQuarantined.
func (h *Host) Revive() {
	select {
	case h.revive <- struct{}{}:
	default:
	}
}

// State returns the host's current supervision state.
func (h *Host) State() State { return State(h.state.Load()) }

// Addr returns the host's pinned address (stable across restarts).
func (h *Host) Addr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.addr
}

// Instance returns the current instance (nil while restarting).
func (h *Host) Instance() Instance {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inst
}

// Status snapshots the host for /status.
func (h *Host) Status() HostStatus {
	h.mu.Lock()
	inst, addr, lastExit := h.inst, h.addr, h.lastExit
	h.mu.Unlock()
	st := HostStatus{
		Name: h.cfg.Name, State: h.State().String(), Addr: addr,
		Restarts: h.restarts.Load(), Crashes: h.crashes.Load(),
		Quarantines: h.quarantines.Load(), ProbeFailures: h.probeFailures.Load(),
		LastExit: lastExit,
	}
	if inst != nil {
		st.Pid = inst.Pid()
	}
	return st
}

func (h *Host) event(kind, detail string) {
	if h.cfg.OnEvent != nil {
		h.cfg.OnEvent(HostEvent{App: h.cfg.Name, Kind: kind, Detail: detail})
	}
}

func (h *Host) setInstance(inst Instance) {
	h.mu.Lock()
	h.inst = inst
	if inst != nil {
		h.addr = inst.Addr()
	}
	h.mu.Unlock()
}

func (h *Host) setLastExit(reason string) {
	h.mu.Lock()
	h.lastExit = reason
	h.mu.Unlock()
}

// run is the supervision loop. inst is the already-launched first
// instance; every later incarnation is launched here.
func (h *Host) run(first Instance) {
	defer close(h.done)
	inst := first
	var streak int // consecutive crashes with short uptimes (backoff exponent)
	var crashTimes []time.Time
	for {
		if inst == nil {
			var err error
			inst, err = h.cfg.Launch(h.Addr())
			if err != nil {
				// A failed launch is a crash that never got to run.
				h.setLastExit(fmt.Sprintf("relaunch failed: %v", err))
				h.event("crash", fmt.Sprintf("relaunch failed: %v", err))
				if h.noteCrash(&streak, &crashTimes) {
					if h.quarantineWait() {
						streak, crashTimes = 0, nil
						continue
					}
					return
				}
				if !h.backoff(streak) {
					return
				}
				continue
			}
			h.setInstance(inst)
			h.state.Store(int32(StateUp))
			h.event("launched", fmt.Sprintf("addr=%s pid=%d", inst.Addr(), inst.Pid()))
		}

		up := time.Now()
		reason, stopping := h.watch(inst)
		if stopping {
			h.shutdown(inst)
			return
		}
		// The instance is dead (or was killed as wedged): account the
		// crash, decide quarantine vs backoff-and-relaunch.
		h.setInstance(nil)
		h.setLastExit(reason)
		h.crashes.Add(1)
		h.event("crash", reason)
		if time.Since(up) >= h.cfg.CrashLoopWindow {
			streak, crashTimes = 0, nil // it was healthy for a full window
		}
		inst = nil
		if h.noteCrash(&streak, &crashTimes) {
			if h.quarantineWait() {
				streak, crashTimes = 0, nil
				continue
			}
			return
		}
		h.state.Store(int32(StateRestarting))
		h.event("restarting", fmt.Sprintf("backoff exponent %d", streak))
		if !h.backoff(streak) {
			return
		}
		h.restarts.Add(1)
	}
}

// watch blocks until the instance dies (reason, false), is declared
// wedged and killed (reason, false), or the host is stopped ("", true).
func (h *Host) watch(inst Instance) (reason string, stopping bool) {
	var probeC <-chan time.Time
	if h.cfg.ProbeInterval > 0 {
		t := time.NewTicker(h.cfg.ProbeInterval)
		defer t.Stop()
		probeC = t.C
	}
	consecutive := 0
	for {
		select {
		case <-h.stop:
			return "", true
		case <-inst.Done():
			if err := inst.ExitErr(); err != nil {
				return err.Error(), false
			}
			return "exited", false
		case <-probeC:
			err := h.cfg.Probe(inst.Addr(), h.cfg.ProbeTimeout)
			if err == nil {
				consecutive = 0
				continue
			}
			consecutive++
			h.probeFailures.Add(1)
			h.event("probe-failure", fmt.Sprintf("%d/%d: %v", consecutive, h.cfg.ProbeFailures, err))
			if consecutive < h.cfg.ProbeFailures {
				continue
			}
			// Wedged: alive (or at least not reaped) but not answering.
			// Kill it and let the crash path relaunch.
			h.event("wedged", fmt.Sprintf("%d consecutive probe failures, killing pid %d", consecutive, inst.Pid()))
			_ = inst.Kill()
			if done := inst.Done(); done != nil {
				reap := time.NewTimer(5 * time.Second)
				select {
				case <-done:
				case <-reap.C:
				}
				reap.Stop()
			}
			return fmt.Sprintf("killed after %d consecutive probe failures", consecutive), false
		}
	}
}

// noteCrash records a crash into the streak/window bookkeeping and
// reports whether the host just crossed into quarantine.
func (h *Host) noteCrash(streak *int, crashTimes *[]time.Time) bool {
	*streak++
	now := time.Now()
	*crashTimes = append(*crashTimes, now)
	recent := (*crashTimes)[:0]
	for _, t := range *crashTimes {
		if now.Sub(t) < h.cfg.CrashLoopWindow {
			recent = append(recent, t)
		}
	}
	*crashTimes = recent
	if len(recent) < h.cfg.CrashLoopThreshold {
		return false
	}
	h.state.Store(int32(StateQuarantined))
	h.quarantines.Add(1)
	h.event("quarantined", fmt.Sprintf("%d crashes inside %s", len(recent), h.cfg.CrashLoopWindow))
	return true
}

// quarantineWait parks the host in quarantine until Stop (false) or
// Revive (true).
func (h *Host) quarantineWait() (revived bool) {
	select {
	case <-h.stop:
		h.state.Store(int32(StateStopped))
		h.event("stopped", "stopped while quarantined")
		return false
	case <-h.revive:
		h.event("revived", "quarantine lifted")
		return true
	}
}

// backoff sleeps the jittered exponential restart delay; false means
// the host was stopped mid-backoff.
func (h *Host) backoff(streak int) bool {
	// Jittered: herds of workers relaunching in lockstep would
	// re-synchronize the very contention that killed them.
	d := h.jitter.Backoff(h.cfg.RestartBackoff, h.cfg.MaxRestartBackoff, streak-1)
	select {
	case <-h.stop:
		h.state.Store(int32(StateStopped))
		h.event("stopped", "stopped during restart backoff")
		return false
	case <-time.After(d):
		return true
	}
}

// shutdown stops the live instance on host Stop.
func (h *Host) shutdown(inst Instance) {
	h.state.Store(int32(StateStopped))
	if err := inst.Stop(); err != nil {
		h.event("stopped", fmt.Sprintf("instance stop: %v", err))
		return
	}
	h.event("stopped", "")
}

// Supervisor is the collection of hosts a daemon runs, with the
// telemetry binding for the supervisor counter families.
type Supervisor struct {
	//cbvet:ignore rawsync guards supervisor bookkeeping, not an application lock in any modeled deadlock
	mu     sync.Mutex
	hosts  []*Host
	byName map[string]*Host
}

// NewSupervisor returns an empty supervisor.
func NewSupervisor() *Supervisor {
	return &Supervisor{byName: make(map[string]*Host)}
}

// Add builds a host from cfg and registers it (not yet started).
func (s *Supervisor) Add(cfg HostConfig) *Host {
	h := NewHost(cfg)
	s.mu.Lock()
	s.hosts = append(s.hosts, h)
	s.byName[cfg.Name] = h
	s.mu.Unlock()
	return h
}

// Host returns the named host (nil if unknown).
func (s *Supervisor) Host(name string) *Host {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byName[name]
}

// Hosts returns the hosts in registration order.
func (s *Supervisor) Hosts() []*Host {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Host(nil), s.hosts...)
}

// StartAll starts every host in registration order (so an app whose
// launcher depends on an earlier app's address — httpd's backend —
// boots after it). The first failure stops the ones already started
// and is returned.
func (s *Supervisor) StartAll() error {
	for i, h := range s.Hosts() {
		if err := h.Start(); err != nil {
			for _, prev := range s.Hosts()[:i] {
				prev.Stop()
			}
			return err
		}
	}
	return nil
}

// StopAll stops every host in reverse registration order (dependents
// before their backends).
func (s *Supervisor) StopAll() {
	hosts := s.Hosts()
	for i := len(hosts) - 1; i >= 0; i-- {
		hosts[i].Stop()
	}
}

// Statuses snapshots every host in registration order.
func (s *Supervisor) Statuses() []HostStatus {
	hosts := s.Hosts()
	out := make([]HostStatus, 0, len(hosts))
	for _, h := range hosts {
		out = append(out, h.Status())
	}
	return out
}

// AllUp reports whether every host is in StateUp — the /readyz gate.
func (s *Supervisor) AllUp() bool {
	hosts := s.Hosts()
	if len(hosts) == 0 {
		return false
	}
	for _, h := range hosts {
		if h.State() != StateUp {
			return false
		}
	}
	return true
}

// RegisterMetrics registers the supervisor counter families on the
// registry: per-app state gauge, restarts, crashes, quarantines, and
// probe failures — all pulled from the hosts' atomics at scrape time.
func (s *Supervisor) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCollector(func(emit func(telemetry.Sample)) {
		for _, h := range s.Hosts() {
			name := h.cfg.Name
			emit(telemetry.Sample{Desc: telemetry.DescAppState, Labels: []string{name}, Value: float64(h.state.Load())})
			emit(telemetry.Sample{Desc: telemetry.DescAppRestarts, Labels: []string{name}, Value: float64(h.restarts.Load())})
			emit(telemetry.Sample{Desc: telemetry.DescAppCrashes, Labels: []string{name}, Value: float64(h.crashes.Load())})
			emit(telemetry.Sample{Desc: telemetry.DescAppQuarantines, Labels: []string{name}, Value: float64(h.quarantines.Load())})
			emit(telemetry.Sample{Desc: telemetry.DescAppProbeFailures, Labels: []string{name}, Value: float64(h.probeFailures.Load())})
		}
	})
}

// InProcLauncher hosts the spec'd app inside this process: restarts are
// a fresh StartApp pinned to the previous address. The engine is shared
// across incarnations, so admin breakpoint toggles survive restarts.
func InProcLauncher(e *core.Engine, spec Spec) Launcher {
	return func(prevAddr string) (Instance, error) {
		s := spec
		if prevAddr != "" {
			s.Listen = prevAddr
		}
		app, err := StartApp(e, s)
		if err != nil {
			return nil, err
		}
		return &inProcInstance{app: app}, nil
	}
}

// inProcInstance adapts an in-process App to the Instance interface.
type inProcInstance struct {
	app     *App
	stopped sync.Once
	err     error
}

func (i *inProcInstance) Addr() string          { return i.app.Addr }
func (i *inProcInstance) Pid() int              { return 0 }
func (i *inProcInstance) Done() <-chan struct{} { return nil }
func (i *inProcInstance) ExitErr() error        { return i.err }
func (i *inProcInstance) Stop() error {
	i.stopped.Do(func() { i.err = i.app.Close() })
	return i.err
}
func (i *inProcInstance) Kill() error { return i.Stop() }

// App returns the hosted in-process app (counter access).
func (i *inProcInstance) App() *App { return i.app }

// InstanceApp unwraps an in-process instance's App (nil for process
// instances) — how the daemon reads Served/ShedCount in in-process mode.
func InstanceApp(inst Instance) *App {
	if ip, ok := inst.(*inProcInstance); ok {
		return ip.App()
	}
	return nil
}

// ParseApps parses a comma-separated "app[:bug]" list ("httpd,mysql" or
// "httpd:log-corruption,mysql:deadlock") into specs with the given
// pause. Bugs default to "none".
func ParseApps(list string, pause time.Duration) ([]Spec, error) {
	var specs []Spec
	seen := make(map[string]bool)
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		spec := Spec{App: item, Bug: "none", Pause: pause}
		if i := strings.IndexByte(item, ':'); i >= 0 {
			spec.App, spec.Bug = item[:i], item[i+1:]
		}
		if seen[spec.App] {
			return nil, fmt.Errorf("app %q listed twice", spec.App)
		}
		seen[spec.App] = true
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no apps in %q", list)
	}
	return specs, nil
}
