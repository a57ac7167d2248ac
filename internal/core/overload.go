package core

import (
	"fmt"
	"time"

	"cbreak/internal/guard"
)

// This file is the engine's overload-protection layer, and the one place
// where the engine decides to shed an arrival: to pass it straight
// through (OutcomeShed) instead of postponing it. Postponement is the
// engine's only unbounded resource: every postponed goroutine pins a
// waiter, a timer, and — in the deadlock reproductions — possibly an
// application lock. Under a stampede (a hot breakpoint in a busy
// service, a predicate that suddenly matches everything) the postponed
// population must not grow without bound, and a breakpoint whose partner
// never comes must not keep charging every arrival its timeout. The
// layer has four bounds, all off by default:
//
//   - a per-shard cap on one breakpoint's postponed population,
//   - a global high-water mark above which arrivals are shed outright,
//   - an adaptive postponement budget: between the soft water mark and
//     the high-water mark, granted budgets shrink linearly toward a
//     floor, so the backlog drains faster the fuller it gets,
//   - a timeout-rate trip per breakpoint (a circuit breaker): a
//     breakpoint whose postponements keep timing out is shed for a
//     backoff, then probed half-open.
//
// SetOverloadConfig stores an immutable copy of the config behind an
// atomic pointer, and each postponement loads it, so reconfiguration
// never stops the world. Each shard's trip state remembers the config it
// was judged under, so a newly installed config finds it stale and
// starts it afresh.

// OverloadConfig bounds the engine's postponed populations. Zero-value
// fields disable the corresponding bound.
type OverloadConfig struct {
	// MaxPerShard caps one breakpoint's postponed population (waiters
	// of every slot). An arrival that would exceed it is shed.
	// 0 disables the per-shard bound.
	MaxPerShard int

	// GlobalHighWater caps the engine-wide postponed population; at or
	// above it new arrivals are shed instead of postponed. 0 disables
	// the global bound.
	GlobalHighWater int

	// SoftWater is the global population where adaptive budgeting
	// begins: between SoftWater and GlobalHighWater the granted
	// postponement budget shrinks linearly from the requested timeout
	// down to MinBudget. 0 defaults to GlobalHighWater/2.
	SoftWater int

	// MinBudget floors the adaptive budget. 0 defaults to 1ms.
	MinBudget time.Duration

	// TimeoutRate trips a breakpoint whose postponements keep timing
	// out (a circuit breaker): once it has seen 8 outcomes, a timeout
	// rate at or above TimeoutRate opens its trip, and its arrivals
	// that find no partner are shed for a backoff of 10 times the
	// timeout that tripped it. Then one half-open probe decides: a hit
	// closes the trip, a timeout reopens it with the backoff doubled,
	// up to 300 times the timeout. 0 disables the trip.
	TimeoutRate float64
}

// defaultMinBudget floors adaptive postponement budgets when the
// config leaves MinBudget zero.
const defaultMinBudget = time.Millisecond

// The trip's fixed settings. It is judged after tripMinSamples
// postponement outcomes, and both of its counts halve when they reach
// tripWindow outcomes, so the rate follows recent outcomes. It backs off
// tripBackoff times the timeout of the postponement that tripped it, and
// each failed probe doubles the backoff, up to tripMaxBackoff times that
// probe's timeout: 1 s and 30 s at the paper's 100 ms timeout.
const (
	tripMinSamples = 8
	tripWindow     = 64
	tripBackoff    = 10
	tripMaxBackoff = 300
)

// SetOverloadConfig installs (or, with nil, removes) the engine's
// overload bounds. It stores a copy, which the engine never changes, so
// arrivals read it lock-free and the next postponement sees the new
// bounds. Every breakpoint's trip state is discarded: each shard starts
// afresh the next time it consults the new config.
func (e *Engine) SetOverloadConfig(cfg *OverloadConfig) {
	if cfg == nil {
		e.overloadCfg.Store(nil)
		return
	}
	c := *cfg
	e.overloadCfg.Store(&c)
}

// PostponedTotal returns the engine-wide count of currently postponed
// goroutines (every arity, all breakpoints).
func (e *Engine) PostponedTotal() int64 { return e.postponedTotal.Load() }

// Overload returns a copy of the engine's installed overload bounds;
// ok is false when overload protection is disabled.
func (e *Engine) Overload() (OverloadConfig, bool) {
	cfg := e.overloadCfg.Load()
	if cfg == nil {
		return OverloadConfig{}, false
	}
	return *cfg, true
}

// AtHighWater reports whether the engine-wide postponed population is
// at or above the installed global high-water mark, and why. While it
// is, arrivals are shed; so are the socket servers' accepts (their Shed
// hook is this method), and cbserverd's /healthz answers 503.
func (e *Engine) AtHighWater() (reason string, at bool) {
	cfg := e.overloadCfg.Load()
	if cfg == nil || cfg.GlobalHighWater <= 0 {
		return "", false
	}
	if pop := e.postponedTotal.Load(); pop >= int64(cfg.GlobalHighWater) {
		return fmt.Sprintf("global postponed population %d at high water %d", pop, cfg.GlobalHighWater), true
	}
	return "", false
}

// note is an incident decided under a shard mutex and recorded once the
// mutex is released (Engine.record); the zero note records nothing.
type note struct {
	kind   guard.IncidentKind
	detail string
}

// admit is the engine's one shed decision. It runs under s.mu for an
// arrival that completed no group, so a tripped breakpoint still hits a
// partner that is already postponed, and it reports whether the arrival
// must be shed instead of postponed, with the incident to record. A
// trip shed records none: the trip's own incident explains it. An open
// trip whose backoff has expired admits this arrival as its half-open
// probe.
func (s *bpState) admit(cfg *OverloadConfig, now time.Time) (note, bool) {
	if cfg == nil {
		return note{}, false
	}
	if n := len(s.postponed); cfg.MaxPerShard > 0 && n >= cfg.MaxPerShard {
		return note{guard.KindOverloadShed, fmt.Sprintf("shard postponed population %d at bound %d", n, cfg.MaxPerShard)}, true
	}
	if reason, at := s.eng.AtHighWater(); at {
		return note{guard.KindOverloadShed, reason}, true
	}
	t := &s.trip
	if !t.on(cfg) || t.State != BreakerOpen {
		return note{}, false
	}
	if now.Before(t.OpenUntil) {
		return note{}, true
	}
	t.State = BreakerHalfOpen
	return note{guard.KindBreakerProbe, "backoff expired; half-open probe admitted"}, false
}

// budget returns the postponement budget granted for a requested
// timeout at the current global postponed population: the request
// itself below the soft water mark, shrinking linearly to MinBudget at
// the high-water mark.
func (cfg *OverloadConfig) budget(req time.Duration, global int64) time.Duration {
	if cfg == nil || cfg.GlobalHighWater <= 0 {
		return req
	}
	soft := cfg.SoftWater
	if soft <= 0 {
		soft = cfg.GlobalHighWater / 2
	}
	if global <= int64(soft) {
		return req
	}
	min := cfg.MinBudget
	if min <= 0 {
		min = defaultMinBudget
	}
	if req <= min {
		return req
	}
	span := int64(cfg.GlobalHighWater - soft)
	if span <= 0 {
		return min
	}
	over := global - int64(soft)
	if over >= span {
		return min
	}
	return req - time.Duration(over)*(req-min)/time.Duration(span)
}

// BreakerState is the state of a breakpoint's timeout-rate trip.
type BreakerState int

// Trip states.
const (
	// BreakerClosed: the breakpoint operates normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the breakpoint is tripped; arrivals that find no
	// partner are shed until the backoff expires.
	BreakerOpen
	// BreakerHalfOpen: the backoff expired and an arrival was admitted
	// as the probe. A rendezvous probe can only hit if its partner is
	// admitted too, so every arrival is admitted while half-open; the
	// first outcome decides between closing and reopening.
	BreakerHalfOpen
)

// String returns the state label.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerSnapshot is a copy of one breakpoint's trip state. The trips
// and rearms it has made are counted in the breakpoint's BPStats.
type BreakerSnapshot struct {
	State BreakerState
	// Samples and Timeouts are the decayed counts of postponement
	// outcomes the timeout rate is judged on.
	Samples  int64
	Timeouts int64
	// Backoff is how long the last trip shed arrivals, and OpenUntil
	// when that ends.
	Backoff   time.Duration
	OpenUntil time.Time
}

// String formats the snapshot for logs.
func (s BreakerSnapshot) String() string {
	return fmt.Sprintf("%s samples=%d timeouts=%d backoff=%s", s.State, s.Samples, s.Timeouts, s.Backoff)
}

// BreakerSnapshot returns the named breakpoint's trip state; ok is false
// when the trip is off (no installed TimeoutRate) or the breakpoint is
// unknown. A breakpoint with no outcome since the config was installed
// reads closed.
func (e *Engine) BreakerSnapshot(name string) (BreakerSnapshot, bool) {
	cfg := e.overloadCfg.Load()
	s, ok := e.lookupShard(name)
	if !ok || !cfg.trips() {
		return BreakerSnapshot{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.trip.cfg != cfg {
		return BreakerSnapshot{}, true
	}
	return s.trip.BreakerSnapshot, true
}

// trips reports whether cfg turns the timeout-rate trip on.
func (cfg *OverloadConfig) trips() bool { return cfg != nil && cfg.TimeoutRate > 0 }

// tripState is one breakpoint's timeout-rate trip, guarded by the shard
// mutex. It is sampled where hits and timeouts are decided (hit,
// timedOut) and checked in admit. Its methods take the time, so tests
// can drive it with a fake clock.
type tripState struct {
	cfg *OverloadConfig // the config the state was judged under
	BreakerSnapshot
}

// on adopts cfg, discarding state judged under another config, and
// reports whether cfg turns the trip on.
func (t *tripState) on(cfg *OverloadConfig) bool {
	if t.cfg != cfg {
		*t = tripState{cfg: cfg}
	}
	return cfg.trips()
}

// sample records one postponement outcome.
func (t *tripState) sample(timedOut bool) {
	t.Samples++
	if timedOut {
		t.Timeouts++
	}
	if t.Samples >= tripWindow {
		t.Samples /= 2
		t.Timeouts /= 2
	}
}

// hit samples a hit's n participants, one outcome each. A hit while
// half-open closes the trip: the probe found its partner, so history and
// backoff reset, and the probe's own outcome is spent on the decision.
func (t *tripState) hit(cfg *OverloadConfig, n int) note {
	if !t.on(cfg) {
		return note{}
	}
	var rearm note
	if t.State == BreakerHalfOpen {
		*t = tripState{cfg: cfg}
		n--
		rearm = note{guard.KindBreakerRearm, "probe hit; breaker closed"}
	}
	for ; n > 0; n-- {
		t.sample(false)
	}
	return rearm
}

// timedOut samples a postponement of the given timeout that expired at
// now. It opens the trip when the timeout rate reaches cfg.TimeoutRate
// after tripMinSamples outcomes, and reopens it, with the backoff
// doubled, when a half-open probe times out.
func (t *tripState) timedOut(cfg *OverloadConfig, now time.Time, timeout time.Duration) note {
	if !t.on(cfg) {
		return note{}
	}
	if t.State == BreakerHalfOpen {
		t.Backoff = min(2*t.Backoff, tripMaxBackoff*timeout)
	} else {
		t.sample(true)
		if t.State == BreakerOpen || t.Samples < tripMinSamples ||
			float64(t.Timeouts) < cfg.TimeoutRate*float64(t.Samples) {
			return note{}
		}
		t.Backoff = tripBackoff * timeout
	}
	t.State = BreakerOpen
	t.OpenUntil = now.Add(t.Backoff)
	return note{guard.KindBreakerTrip, "circuit opened: " + t.String()}
}
