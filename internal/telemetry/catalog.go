package telemetry

// This file is the metric catalog: every metric the system exports,
// declared exactly once as a typed descriptor — stable name, kind
// (counter/gauge/histogram), label names, help text, and (for
// histograms) bucket bounds. The shape follows the ops-agent mysql
// receiver's typed metric declarations (SNIPPETS §2): consumers — the
// Prometheus renderer, the docs catalog table, scrape assertions in CI
// — all derive from these descriptors, so a metric cannot drift between
// its producer, its exporter, and its documentation.
//
// Naming: everything is prefixed cbreak_. Per-breakpoint series carry a
// "breakpoint" label rather than a name suffix, so one descriptor
// covers every shard.

// MetricKind is a metric's type.
type MetricKind uint8

// Metric kinds.
const (
	// Counter is a monotonically increasing cumulative count.
	Counter MetricKind = iota
	// Gauge is a point-in-time value that can go up and down.
	Gauge
	// HistogramKind is a bucketed distribution with a sum and count.
	HistogramKind
)

// String returns the Prometheus TYPE label for the kind.
func (k MetricKind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case HistogramKind:
		return "histogram"
	default:
		return "untyped"
	}
}

// Desc is one typed metric declaration.
type Desc struct {
	// Name is the stable exported metric name (Prometheus conventions:
	// snake_case, _total suffix on counters, base units in the name).
	Name string
	// Help is the one-line help text.
	Help string
	// Kind is the metric type.
	Kind MetricKind
	// Labels are the label names every sample of this metric carries,
	// in order.
	Labels []string
	// Buckets are the histogram upper bounds in ascending order
	// (exclusive of the implicit +Inf bucket); nil for non-histograms.
	Buckets []float64
}

// WaitBuckets are the postponement-wait histogram bounds in seconds:
// exponential-ish from 100µs (a short OrderWindow-scale wait) to 2.5s
// (far past any sane pause time T), chosen so the paper's default
// T=100ms lands mid-range.
var WaitBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// NumWaitBuckets is len(WaitBuckets) as a constant, so producers (the
// engine's per-breakpoint stats) can count observations in fixed-size
// atomic arrays. A test pins the two in sync.
const NumWaitBuckets = 14

// The catalog. Declared once; collected by internal/core's engine
// collectors, the wait-graph supervisor, and the registry's bus-fed
// stream counters; rendered by Registry.WritePrometheus.
var (
	// Engine-wide state.

	DescEngineEnabled = &Desc{
		Name: "cbreak_engine_enabled", Kind: Gauge,
		Help: "Whether the breakpoint engine is enabled (1) or disabled (0).",
	}
	DescPostponedWaiters = &Desc{
		Name: "cbreak_postponed_waiters", Kind: Gauge,
		Help: "Goroutines currently postponed across all breakpoints (two-way and multi-way).",
	}
	DescOverloadHighWater = &Desc{
		Name: "cbreak_overload_global_high_water", Kind: Gauge,
		Help: "Configured global postponed-population high-water mark above which arrivals are shed (0 = unbounded).",
	}
	DescOverloadSoftWater = &Desc{
		Name: "cbreak_overload_soft_water", Kind: Gauge,
		Help: "Configured postponed population where adaptive budget shrinking begins (0 = high water / 2).",
	}
	DescOverloadMaxPerShard = &Desc{
		Name: "cbreak_overload_max_per_shard", Kind: Gauge,
		Help: "Configured per-breakpoint postponed-population cap (0 = unbounded).",
	}

	// Per-breakpoint series (BPStats).

	DescBPEnabled = &Desc{
		Name: "cbreak_bp_enabled", Kind: Gauge, Labels: []string{"breakpoint"},
		Help: "Whether the breakpoint is individually enabled (1) or administratively disabled (0).",
	}
	DescBPArrivals = &Desc{
		Name: "cbreak_bp_arrivals_total", Kind: Counter, Labels: []string{"breakpoint"},
		Help: "TriggerHere arrivals on both sides of the breakpoint.",
	}
	DescBPLocalFalses = &Desc{
		Name: "cbreak_bp_local_falses_total", Kind: Counter, Labels: []string{"breakpoint"},
		Help: "Arrivals rejected by the local predicate (or its refinements).",
	}
	DescBPPostpones = &Desc{
		Name: "cbreak_bp_postpones_total", Kind: Counter, Labels: []string{"breakpoint"},
		Help: "Arrivals postponed into the waiting set.",
	}
	DescBPTimeouts = &Desc{
		Name: "cbreak_bp_timeouts_total", Kind: Counter, Labels: []string{"breakpoint"},
		Help: "Postponements that expired without a partner.",
	}
	DescBPHits = &Desc{
		Name: "cbreak_bp_hits_total", Kind: Counter, Labels: []string{"breakpoint"},
		Help: "Breakpoint hits (both sides arrived, predicates held, ordering enforced).",
	}
	DescBPPanics = &Desc{
		Name: "cbreak_bp_panics_total", Kind: Counter, Labels: []string{"breakpoint"},
		Help: "User-closure panics absorbed by the hardening layer at this breakpoint.",
	}
	DescBPSheds = &Desc{
		Name: "cbreak_bp_sheds_total", Kind: Counter, Labels: []string{"breakpoint"},
		Help: "Arrivals the overload layer passed straight through: at a postponed-population bound or an open timeout-rate trip.",
	}
	DescBPBreakerTrips = &Desc{
		Name: "cbreak_bp_breaker_trips_total", Kind: Counter, Labels: []string{"breakpoint"},
		Help: "Timeout-rate trip (circuit-breaker) opens at this breakpoint (initial trips and failed-probe re-opens).",
	}
	DescBPBreakerRearms = &Desc{
		Name: "cbreak_bp_breaker_rearms_total", Kind: Counter, Labels: []string{"breakpoint"},
		Help: "Successful half-open probes that closed the trip again.",
	}
	DescBPBreakerState = &Desc{
		Name: "cbreak_bp_breaker_state", Kind: Gauge, Labels: []string{"breakpoint"},
		Help: "Timeout-rate trip (circuit-breaker) state: 0 closed, 1 open, 2 half-open. Absent when the trip is off.",
	}
	DescBPWait = &Desc{
		Name: "cbreak_bp_wait_seconds", Kind: HistogramKind, Labels: []string{"breakpoint"},
		Help:    "Distribution of time goroutines spent postponed at this breakpoint (the paper's runtime-overhead contribution).",
		Buckets: WaitBuckets,
	}
	DescBPMaxWait = &Desc{
		Name: "cbreak_bp_max_wait_seconds", Kind: Gauge, Labels: []string{"breakpoint"},
		Help: "Longest single postponement observed at this breakpoint.",
	}
	DescBPLastHit = &Desc{
		Name: "cbreak_bp_last_hit_timestamp_seconds", Kind: Gauge, Labels: []string{"breakpoint"},
		Help: "Unix time of the breakpoint's most recent hit (absent until first hit).",
	}

	// Hardening and supervision.

	DescIncidents = &Desc{
		Name: "cbreak_incidents_total", Kind: Counter, Labels: []string{"kind"},
		Help: "Guard incidents by kind (panic, stall, force-release, breaker transitions, cycle-break, deadlock-confirmed, overload-shed, net-fault-injected); monotonic even after the retained ring wraps.",
	}
	DescWaitgraphReports = &Desc{
		Name: "cbreak_waitgraph_reports_total", Kind: Counter, Labels: []string{"kind"},
		Help: "Confirmed wait-graph findings by verdict kind (deadlock, postpone-stall), counted off the telemetry bus.",
	}
	DescWaitgraphScans = &Desc{
		Name: "cbreak_waitgraph_scans_total", Kind: Counter,
		Help: "Wait-graph supervisor scans executed.",
	}

	// Self-healing app supervision (appboot hosted servers).

	DescAppState = &Desc{
		Name: "cbreak_supervisor_app_state", Kind: Gauge, Labels: []string{"app"},
		Help: "Hosted app supervisor state: 0 up, 1 restarting, 2 quarantined, 3 stopped.",
	}
	DescAppRestarts = &Desc{
		Name: "cbreak_supervisor_restarts_total", Kind: Counter, Labels: []string{"app"},
		Help: "Times the supervisor relaunched a hosted app after a crash or failed health probes.",
	}
	DescAppCrashes = &Desc{
		Name: "cbreak_supervisor_crashes_total", Kind: Counter, Labels: []string{"app"},
		Help: "Hosted app instance deaths observed by the supervisor (process exits and probe-declared wedges).",
	}
	DescAppQuarantines = &Desc{
		Name: "cbreak_supervisor_quarantines_total", Kind: Counter, Labels: []string{"app"},
		Help: "Crash-looping hosted apps degraded to the quarantined state instead of being restarted again.",
	}
	DescAppProbeFailures = &Desc{
		Name: "cbreak_supervisor_probe_failures_total", Kind: Counter, Labels: []string{"app"},
		Help: "Failed health probes against hosted apps (timeouts and refused dials).",
	}

	// Serving: cbserverd's app servers and chaos proxy.

	DescUptime = &Desc{
		Name: "cbreak_uptime_seconds", Kind: Gauge,
		Help: "Seconds since cbserverd started.",
	}
	DescAppServed = &Desc{
		Name: "cbreak_app_served_requests_total", Kind: Counter, Labels: []string{"app"},
		Help: "Request lines the app server answered.",
	}
	DescAppShed = &Desc{
		Name: "cbreak_app_shed_connections_total", Kind: Counter, Labels: []string{"app"},
		Help: "Connections the app server's accept loop shed.",
	}
	DescProxyConns = &Desc{
		Name: "cbreak_proxy_connections_total", Kind: Counter,
		Help: "Connections the chaos proxy accepted.",
	}
	DescProxyFaults = &Desc{
		Name: "cbreak_proxy_faults_total", Kind: Counter, Labels: []string{"kind"},
		Help: "Faults the chaos proxy injected, by kind.",
	}

	// Campaign trials and the bus itself.

	DescTrials = &Desc{
		Name: "cbreak_trials_total", Kind: Counter, Labels: []string{"table", "variant", "status"},
		Help: "Campaign/harness trial outcomes by measurement table, variant, and result status, counted off the telemetry bus.",
	}
	DescBusRecords = &Desc{
		Name: "cbreak_bus_records_total", Kind: Counter, Labels: []string{"kind"},
		Help: "Records observed on wired telemetry buses by record kind, since the registry attached.",
	}
	DescBusDropped = &Desc{
		Name: "cbreak_bus_dropped_total", Kind: Counter, Labels: []string{"bus"},
		Help: "Records dropped by slow asynchronous bus subscribers (taps never drop).",
	}
)

// Catalog returns every metric descriptor, in the stable documentation
// and rendering order.
func Catalog() []*Desc {
	return []*Desc{
		DescEngineEnabled, DescPostponedWaiters,
		DescOverloadHighWater, DescOverloadSoftWater, DescOverloadMaxPerShard,
		DescBPEnabled, DescBPArrivals, DescBPLocalFalses, DescBPPostpones,
		DescBPTimeouts, DescBPHits, DescBPPanics, DescBPSheds,
		DescBPBreakerTrips, DescBPBreakerRearms, DescBPBreakerState,
		DescBPWait, DescBPMaxWait, DescBPLastHit,
		DescIncidents, DescWaitgraphReports, DescWaitgraphScans,
		DescAppState, DescAppRestarts, DescAppCrashes,
		DescAppQuarantines, DescAppProbeFailures,
		DescUptime, DescAppServed, DescAppShed, DescProxyConns, DescProxyFaults,
		DescTrials, DescBusRecords, DescBusDropped,
	}
}
