package core

import (
	"fmt"
	"time"
)

// This file is the engine's overload-protection layer. Postponement is
// the engine's only unbounded resource: every postponed goroutine pins
// a waiter, a timer, and — in the deadlock reproductions — possibly an
// application lock. Under a stampede (a hot breakpoint in a busy
// service, a predicate that suddenly matches everything) the postponed
// population must not grow without bound. The layer bounds it three
// ways, all off by default:
//
//   - a per-shard cap on one breakpoint's postponed population,
//   - a global high-water mark above which arrivals are shed outright
//     (OutcomeShed, mirroring the circuit breaker's degradation path),
//   - an adaptive postponement budget: between the soft water mark and
//     the high-water mark, granted budgets shrink linearly toward a
//     floor, so the backlog drains faster the fuller it gets.
//
// SetOverloadConfig stores an immutable copy of the config behind an
// atomic pointer, and each postponement loads it, so reconfiguration
// never stops the world. Unlike the breaker's, the config keeps no
// per-shard state, so no shard caches it.

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
}

// defaultMinBudget floors adaptive postponement budgets when the
// config leaves MinBudget zero.
const defaultMinBudget = time.Millisecond

// SetOverloadConfig installs (or, with nil, removes) the engine's
// overload bounds. It stores a copy, which the engine never changes, so
// arrivals read it lock-free and the next postponement sees the new
// bounds.
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
// ok is false when overload protection is disabled. External layers
// that degrade alongside the engine — notably the socket servers'
// accept-loop shedding — read the same water marks from here instead
// of duplicating the configuration.
func (e *Engine) Overload() (OverloadConfig, bool) {
	cfg := e.overloadCfg.Load()
	if cfg == nil {
		return OverloadConfig{}, false
	}
	return *cfg, true
}

// shedReason reports whether an arrival must be shed instead of
// postponed, given the shard's current postponed population and the
// engine-wide total, and if so why. A nil config never sheds.
func (cfg *OverloadConfig) shedReason(shardPop int, global int64) (string, bool) {
	if cfg == nil {
		return "", false
	}
	if cfg.MaxPerShard > 0 && shardPop >= cfg.MaxPerShard {
		return fmt.Sprintf("shard postponed population %d at bound %d", shardPop, cfg.MaxPerShard), true
	}
	if cfg.GlobalHighWater > 0 && global >= int64(cfg.GlobalHighWater) {
		return fmt.Sprintf("global postponed population %d at high water %d", global, cfg.GlobalHighWater), true
	}
	return "", false
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
