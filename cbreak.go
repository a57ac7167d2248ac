// Package cbreak is a Go implementation of concurrent breakpoints, the
// light-weight, programmatic mechanism for making concurrency Heisenbugs
// reproducible described in "Concurrent Breakpoints" (Chang-Seo Park and
// Koushik Sen, UC Berkeley EECS-2011-159, PPoPP 2012).
//
// A concurrent breakpoint (l1, l2, phi) names two program locations and a
// predicate over the joint local state of two goroutines. When two
// goroutines are at l1 and l2 with phi satisfied, the breakpoint is hit
// and the goroutines proceed in the breakpoint's declared order — which
// deterministically resolves the data race, lock contention, atomicity
// violation, or missed notification that the breakpoint describes.
//
// The BTrigger mechanism makes hitting a breakpoint probable: a goroutine
// whose local predicate holds is postponed for a bounded pause, giving
// the partner time to arrive. Timeouts guarantee breakpoints can never
// deadlock the program, so they can stay in code, disabled, like
// assertions.
//
// Minimal use, mirroring the paper's Figures 1 and 7:
//
//	func foo(p1 *Point) {
//	    cbreak.TriggerHere(cbreak.NewConflictTrigger("trigger1", p1), false, 0)
//	    p1.x = 10 // racy write
//	}
//
//	func bar(p2 *Point) {
//	    cbreak.TriggerHere(cbreak.NewConflictTrigger("trigger1", p2), true, 0)
//	    t = p2.x // racy read, forced to happen first
//	}
//
// This package is a facade over the implementation packages:
// internal/core (engine and triggers), internal/locks (instrumented
// locks, condition variables, and lock-class predicates), internal/detect
// (the Eraser-style and happens-before conflict detectors used to find
// breakpoint sites), internal/prob (the section-3 probability model), and
// internal/replay (schedule pinning and breakpoint regression tests).
package cbreak

import (
	"time"

	"cbreak/internal/core"
	"cbreak/internal/detect"
	"cbreak/internal/guard"
	"cbreak/internal/guard/faultinject"
	"cbreak/internal/locks"
	"cbreak/internal/memory"
	"cbreak/internal/prob"
	"cbreak/internal/replay"
	"cbreak/internal/telemetry"
	"cbreak/internal/waitgraph"
)

// Core breakpoint API.
type (
	// Trigger is one side of a concurrent breakpoint.
	Trigger = core.Trigger
	// Options refines a TriggerHere call (timeout, IgnoreFirst, Bound,
	// ExtraLocal).
	Options = core.Options
	// Outcome classifies what happened at a TriggerHere call.
	Outcome = core.Outcome
	// Engine is a breakpoint engine (postponed set + statistics).
	Engine = core.Engine
	// Breakpoint is a pre-resolved handle to one breakpoint: the
	// per-call registry lookup is done once at Register time, so hot
	// call sites pay only the arrival itself. Handles survive Reset by
	// transparently re-resolving.
	Breakpoint = core.Breakpoint
	// BPStats carries per-breakpoint counters.
	BPStats = core.BPStats
	// ConflictTrigger is a same-object breakpoint side: a data race, an
	// atomicity violation or a missed notification, by constructor.
	ConflictTrigger = core.ConflictTrigger
	// DeadlockTrigger is a crossed-lock deadlock breakpoint side.
	DeadlockTrigger = core.DeadlockTrigger
	// PredTrigger is a generic closure-predicate breakpoint side: the
	// way to write a predicate of your own.
	PredTrigger = core.PredTrigger
)

// Outcome values.
const (
	OutcomeDisabled   = core.OutcomeDisabled
	OutcomeLocalFalse = core.OutcomeLocalFalse
	OutcomeTimeout    = core.OutcomeTimeout
	OutcomeHit        = core.OutcomeHit
	// OutcomePanic: a user closure panicked and the hardening layer
	// absorbed it (docs/USAGE.md, "Hardening & production use").
	OutcomePanic = core.OutcomePanic
	// OutcomeShed: the overload layer passed the arrival straight
	// through without postponement: a postponed population was at its
	// bound, or the breakpoint's timeout-rate trip was open
	// (OverloadConfig).
	OutcomeShed = core.OutcomeShed
)

// NewEngine returns a fresh, enabled breakpoint engine.
func NewEngine() *Engine { return core.NewEngine() }

// Default returns the process-wide engine used by the package-level
// trigger functions.
func Default() *Engine { return core.Default() }

// SetEnabled switches the default engine on or off (like enabling or
// disabling assertions).
func SetEnabled(v bool) { core.SetEnabled(v) }

// Enabled reports whether the default engine is enabled.
func Enabled() bool { return core.Enabled() }

// Reset clears the default engine's postponed set and statistics.
func Reset() { core.Reset() }

// Register returns a handle to the named breakpoint on the default
// engine. Prefer handles over the string-keyed TriggerHere* calls on
// hot paths: the handle caches the breakpoint's shard, so each arrival
// skips the per-call registry lookup (see docs/USAGE.md, "Engine
// architecture").
func Register(name string) *Breakpoint { return core.Default().Breakpoint(name) }

// TriggerHere announces that the caller reached one side of breakpoint t;
// see core.Engine.TriggerHere. A zero timeout uses the engine default.
func TriggerHere(t Trigger, first bool, timeout time.Duration) bool {
	return core.TriggerHere(t, first, timeout)
}

// TriggerHereOpts is TriggerHere with full options.
func TriggerHereOpts(t Trigger, first bool, opts Options) bool {
	return core.TriggerHereOpts(t, first, opts)
}

// TriggerHereAnd is TriggerHere with a strict ordering handshake: action
// is the breakpoint location's next instruction and is run inside the
// call; a hit releases the second side only after the first side's
// action returns.
func TriggerHereAnd(t Trigger, first bool, opts Options, action func()) bool {
	return core.TriggerHereAnd(t, first, opts, action)
}

// TriggerHereMulti announces that the caller reached slot `slot` of the
// n-way breakpoint t (the paper's more-than-two-threads generalization);
// slots are released in order on a hit. Arity 2 is the two-way
// breakpoint: slot 0 is TriggerHere's first-action side, slot 1 its
// second.
func TriggerHereMulti(t Trigger, slot, arity int, opts Options) bool {
	return core.Default().TriggerHereMulti(t, slot, arity, opts)
}

// TriggerHereMultiAnd is TriggerHereMulti with the slot's guarded next
// instruction run inside the call, strictly in slot order on a hit.
func TriggerHereMultiAnd(t Trigger, slot, arity int, opts Options, action func()) bool {
	return core.Default().TriggerHereMultiAnd(t, slot, arity, opts, action)
}

// NewConflictTrigger returns a data-race breakpoint side over obj.
func NewConflictTrigger(name string, obj any) *ConflictTrigger {
	return core.NewConflictTrigger(name, obj)
}

// NewDeadlockTrigger returns a deadlock breakpoint side: the caller holds
// held and is about to acquire want.
func NewDeadlockTrigger(name string, held, want any) *DeadlockTrigger {
	return core.NewDeadlockTrigger(name, held, want)
}

// NewAtomicityTrigger returns an atomicity-violation breakpoint side over
// obj.
func NewAtomicityTrigger(name string, obj any) *ConflictTrigger {
	return core.NewAtomicityTrigger(name, obj)
}

// NewNotifyTrigger returns a missed-notification breakpoint side over the
// condition object cond.
func NewNotifyTrigger(name string, cond any) *ConflictTrigger {
	return core.NewNotifyTrigger(name, cond)
}

// NewPredTrigger returns a generic breakpoint side with closure
// predicates.
func NewPredTrigger(name string, state any, local func() bool, global func(other *PredTrigger) bool) *PredTrigger {
	return core.NewPredTrigger(name, state, local, global)
}

// Instrumented synchronization substrate.
type (
	// Mutex is a named, observable lock with per-goroutine held-set
	// tracking.
	Mutex = locks.Mutex
	// Cond is a wait/notify condition variable on a Mutex.
	Cond = locks.Cond
	// LockClass tags locks for class-held predicates.
	LockClass = locks.Class
)

// NewMutex returns a named instrumented mutex.
func NewMutex(name string) *Mutex { return locks.NewMutex(name) }

// NewClassMutex returns a named mutex tagged with a lock class.
func NewClassMutex(name string, c *LockClass) *Mutex { return locks.NewClassMutex(name, c) }

// NewLockClass returns a lock class for class-held predicates.
func NewLockClass(name string) *LockClass { return locks.NewClass(name) }

// NewCond returns a condition variable on monitor l.
func NewCond(name string, l *Mutex) *Cond { return locks.NewCond(name, l) }

// ClassHeldPred returns an Options.ExtraLocal predicate that holds while
// the calling goroutine holds a lock of class c (the paper's
// isLockTypeHeld refinement).
func ClassHeldPred(c *LockClass) func() bool { return locks.ClassHeldPred(c) }

// Instrumented memory substrate.
type (
	// MemSpace groups instrumented cells under one tracer.
	MemSpace = memory.Space
	// MemCell is an instrumented shared integer variable.
	MemCell = memory.Cell
)

// NewMemSpace returns an empty instrumented memory space.
func NewMemSpace() *MemSpace { return memory.NewSpace() }

// NewMemCell returns a named cell in space s with initial value init.
func NewMemCell(s *MemSpace, name string, init int64) *MemCell {
	return memory.NewCell(s, name, init)
}

// Conflict detection (Methodology I and II of the paper).
type (
	// Detector finds data races, lock contentions, and lock-order
	// deadlocks at runtime.
	Detector = detect.Detector
	// ConflictReport is one detected potential conflict state.
	ConflictReport = detect.Report
)

// NewDetector returns a detector with both race detectors enabled.
func NewDetector() *Detector { return detect.New() }

// Probability model (section 3 of the paper).
var (
	// ProbExactBase is the exact no-trigger hit probability
	// 1 - C(N-m,m)/C(N,m).
	ProbExactBase = prob.ExactBase
	// ProbWithTrigger is the with-trigger lower bound.
	ProbWithTrigger = prob.ExactTriggerLB
	// ProbImprovement is the amplification factor T(N-m+1)/(N+MT-M).
	ProbImprovement = prob.ImprovementFactor
)

// Schedule pinning and regression testing (section 8 of the paper).
type (
	// Schedule pins a total order over named program points.
	Schedule = replay.Schedule
	// ScheduleGraph pins a partial order (dependency DAG) over points.
	ScheduleGraph = replay.Graph
	// Regression asserts that a scenario hits a set of breakpoints.
	Regression = replay.Regression
	// ScheduleViolation is the structured record of a timed-out
	// Schedule/ScheduleGraph wait: which point was stuck and who held
	// it up.
	ScheduleViolation = replay.Violation
)

// NewSchedule declares a total order over named points with a per-wait
// timeout.
func NewSchedule(timeout time.Duration, points ...string) *Schedule {
	return replay.NewSchedule(timeout, points...)
}

// NewScheduleGraph declares a partial order over named points; add
// edges with Point(name, deps...).
func NewScheduleGraph(timeout time.Duration) *ScheduleGraph {
	return replay.NewGraph(timeout)
}

// Hardening layer (docs/USAGE.md, "Hardening & production use"): panic
// isolation, the incident log, and deterministic fault injection.
type (
	// Incident is one retained hardening event (absorbed panic, stall,
	// forced release, shed, trip transition).
	Incident = guard.Incident
	// IncidentKind classifies incidents.
	IncidentKind = guard.IncidentKind
	// DurableSink receives a durable copy of every engine event and
	// incident (docs/USAGE.md, "Durability & crash recovery"); the
	// canonical implementation is internal/journal/sink.
	DurableSink = core.DurableSink
	// Event is one engine event as published on the telemetry bus;
	// DurableSink implementations receive a copy of each as it happens.
	Event = core.Event
	// EventKind classifies engine events (arrived/postponed/hit/timeout).
	EventKind = core.EventKind
	// BreakerState is the state of a breakpoint's timeout-rate trip,
	// its circuit breaker (closed/open/half-open).
	BreakerState = core.BreakerState
	// BreakerSnapshot is a point-in-time copy of one breakpoint's trip
	// state.
	BreakerSnapshot = core.BreakerSnapshot
	// Fault is the set of faults injectable at one trigger arrival.
	Fault = guard.Fault
	// FaultInjector decides which faults to inject per arrival.
	FaultInjector = guard.Injector
	// FaultPlan is a deterministic, ordinal-keyed fault-injection plan.
	FaultPlan = faultinject.Plan
	// FaultSide selects which breakpoint side a fault rule applies to.
	FaultSide = faultinject.Side
	// StatsSnapshot is an atomic copy of one breakpoint's counters.
	StatsSnapshot = core.StatsSnapshot
	// OverloadConfig parameterizes overload protection: per-shard caps,
	// adaptive budgets, global shedding, and the per-breakpoint
	// timeout-rate trip.
	OverloadConfig = core.OverloadConfig
	// PostponedWaiter describes one goroutine currently postponed at a
	// breakpoint, as observed by supervision snapshots.
	PostponedWaiter = core.PostponedWaiter
)

// Incident kinds.
const (
	KindPanic        = guard.KindPanic
	KindStall        = guard.KindStall
	KindForceRelease = guard.KindForceRelease
	KindBreakerTrip  = guard.KindBreakerTrip
	KindBreakerProbe = guard.KindBreakerProbe
	KindBreakerRearm = guard.KindBreakerRearm
	// Wait-graph supervision incidents (docs/USAGE.md, "Deadlock
	// supervision & overload shedding").
	KindCycleBreak        = guard.KindCycleBreak
	KindDeadlockConfirmed = guard.KindDeadlockConfirmed
	KindOverloadShed      = guard.KindOverloadShed
	// Network chaos incidents (docs/USAGE.md, "Network fault injection
	// & load testing").
	KindNetFault = guard.KindNetFault
)

// Trip states and fault-plan sides.
const (
	BreakerClosed   = core.BreakerClosed
	BreakerOpen     = core.BreakerOpen
	BreakerHalfOpen = core.BreakerHalfOpen

	BothSides  = faultinject.BothSides
	FirstSide  = faultinject.FirstSide
	SecondSide = faultinject.SecondSide
)

// NewFaultPlan returns an empty deterministic fault-injection plan;
// install it with SetFaultInjector.
func NewFaultPlan() *FaultPlan { return faultinject.NewPlan() }

// SetFaultInjector installs a fault injector on the default engine (nil
// removes it).
func SetFaultInjector(in FaultInjector) { core.Default().SetInjector(in) }

// BreakerStatus returns the default engine's timeout-rate trip state for
// the named breakpoint; ok is false when the installed OverloadConfig
// sets no TimeoutRate or the breakpoint is unknown.
func BreakerStatus(name string) (BreakerSnapshot, bool) {
	return core.Default().BreakerSnapshot(name)
}

// SetIsolateActionPanics selects the default engine's action-panic
// policy: false (default) re-throws action panics to the caller after
// releasing the partner; true absorbs them into OutcomePanic.
func SetIsolateActionPanics(v bool) { core.Default().SetIsolateActionPanics(v) }

// Incidents returns the default engine's retained hardening incidents,
// oldest first.
func Incidents() []Incident { return core.Default().Incidents() }

// IncidentCount returns the default engine's monotonic total of
// incidents of one kind (monotonic even after the retained ring wraps).
func IncidentCount(k IncidentKind) int64 { return core.Default().IncidentCount(k) }

// SetDurableSink tees the default engine's events and incidents into a
// durable sink (nil removes it), so a crashed process leaves its
// breakpoint history on disk for post-mortem replay.
func SetDurableSink(s DurableSink) { core.Default().SetDurableSink(s) }

// SnapshotStats returns atomic snapshots of every breakpoint's counters
// on the default engine, sorted by name.
func SnapshotStats() []StatsSnapshot { return core.Default().SnapshotAll() }

// SetOverloadConfig installs overload protection on the default engine
// (nil disables it), discarding every breakpoint's trip state.
func SetOverloadConfig(cfg *OverloadConfig) { core.Default().SetOverloadConfig(cfg) }

// PostponedTotal returns how many goroutines are currently postponed
// across all of the default engine's breakpoints.
func PostponedTotal() int64 { return core.Default().PostponedTotal() }

// PostponedWaiters snapshots every goroutine currently postponed on the
// default engine, for wait-graph construction or diagnostics.
func PostponedWaiters() []PostponedWaiter { return core.Default().PostponedWaiters() }

// ForceRelease releases the named breakpoint's postponed goroutine gid
// early (as if its budget expired), recording an incident of the given
// kind; it reports whether the goroutine was found postponed there.
func ForceRelease(name string, gid uint64, kind IncidentKind, detail string) bool {
	return core.Default().ForceRelease(name, gid, kind, detail)
}

// Introspection accessors over the default engine (docs/USAGE.md,
// "Live control plane & metrics").

// Overload returns the default engine's installed overload protection
// bounds; ok is false when none are installed.
func Overload() (OverloadConfig, bool) { return core.Default().Overload() }

// Stats returns the live counters of the named breakpoint on the
// default engine (created if unseen).
func Stats(name string) *BPStats { return core.Default().Stats(name) }

// PostponedCount returns how many goroutines are currently postponed at
// the named breakpoint on the default engine, at every slot of every
// arity.
func PostponedCount(name string) int { return core.Default().PostponedCount(name) }

// IncidentCounts returns the default engine's monotonic incident totals
// keyed by kind label, only kinds seen at least once.
func IncidentCounts() map[string]int64 { return core.Default().IncidentCounts() }

// EngineReport renders the default engine's per-breakpoint statistics
// as a human-readable table.
func EngineReport() string { return core.Default().Report() }

// DurableSinkInstalled reports whether a durable sink is currently
// installed on the default engine.
func DurableSinkInstalled() bool { return core.Default().DurableSinkInstalled() }

// SetBreakpointEnabled enables or disables one breakpoint on the
// default engine without touching the rest — the live-ops analog of
// SetEnabled. Disabling an unseen name registers it, so a breakpoint
// can be pre-disabled before its first arrival.
func SetBreakpointEnabled(name string, enabled bool) {
	core.Default().SetBreakpointEnabled(name, enabled)
}

// BreakpointEnabled reports whether the named breakpoint on the default
// engine is enabled (unseen breakpoints are).
func BreakpointEnabled(name string) bool { return core.Default().BreakpointEnabled(name) }

// Typed telemetry: the single bus every introspection surface emits
// through, plus the pull-path metric registry (docs/USAGE.md, "Live
// control plane & metrics").
type (
	// TelemetryBus carries every engine record (events, incidents,
	// wait-graph reports, trial outcomes) to taps and subscriptions.
	TelemetryBus = telemetry.Bus
	// TelemetryRecord is one bus record: a kind tag plus the matching
	// payload field.
	TelemetryRecord = telemetry.Record
	// TelemetryRecordKind discriminates TelemetryRecord payloads.
	TelemetryRecordKind = telemetry.RecordKind
	// TelemetrySubscription is an async bounded-buffer bus listener.
	TelemetrySubscription = telemetry.Subscription
	// MetricRegistry gathers collectors into Prometheus text expositions.
	MetricRegistry = telemetry.Registry
	// MetricSample is one gathered metric value.
	MetricSample = telemetry.Sample
	// MetricDesc describes one metric family in the catalog.
	MetricDesc = telemetry.Desc
)

// Telemetry record kinds.
const (
	RecordEvent    = telemetry.RecordEvent
	RecordIncident = telemetry.RecordIncident
	RecordReport   = telemetry.RecordReport
	RecordTrial    = telemetry.RecordTrial
)

// Telemetry returns the default engine's telemetry bus; subscribe for a
// live feed or attach synchronous taps.
func Telemetry() *TelemetryBus { return core.Default().Bus() }

// NewMetricRegistry returns an empty metric registry; render it with
// its WritePrometheus method.
func NewMetricRegistry() *MetricRegistry { return telemetry.NewRegistry() }

// RegisterMetrics registers the default engine's metric collectors
// (engine gauges, per-breakpoint counters and wait histograms, incident
// totals) on reg.
func RegisterMetrics(reg *MetricRegistry) { core.Default().RegisterMetrics(reg) }

// Wait-graph supervision (docs/USAGE.md, "Deadlock supervision &
// overload shedding").
type (
	// WaitGraphSupervisor confirms each instrumented-lock deadlock as
	// the wait that closes it begins, and scans the engine's postponed
	// set against the lock wait-for graph to break postpone-stall
	// cycles.
	WaitGraphSupervisor = waitgraph.Supervisor
	// WaitGraphConfig parameterizes a supervisor.
	WaitGraphConfig = waitgraph.Config
	// WaitGraphReport is one confirmed supervisor finding.
	WaitGraphReport = waitgraph.Report
	// WaitGraphReportKind classifies findings.
	WaitGraphReportKind = waitgraph.ReportKind
)

// Wait-graph report kinds.
const (
	ReportDeadlock      = waitgraph.ReportDeadlock
	ReportPostponeStall = waitgraph.ReportPostponeStall
)

// StartSupervisor starts a wait-graph supervisor over the default
// engine and returns it; callers own Stop.
func StartSupervisor(cfg WaitGraphConfig) *WaitGraphSupervisor {
	s := waitgraph.New(core.Default(), cfg)
	s.Start()
	return s
}
