package guard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is the circuit-breaker state of one breakpoint.
type BreakerState int32

// Breaker states.
const (
	// BreakerClosed: the breakpoint operates normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the breakpoint is tripped; arrivals are shed (pass
	// straight through without postponement) until the backoff expires.
	BreakerOpen
	// BreakerHalfOpen: the backoff expired and arrivals are admitted as
	// probes. Unlike a classic request/response breaker, a rendezvous
	// probe can only succeed if its partner is admitted too, so every
	// arrival passes while half-open; the first reported outcome decides
	// between re-arming and re-opening with a doubled backoff.
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

// BreakerConfig parameterizes per-breakpoint circuit breakers.
type BreakerConfig struct {
	// MinSamples is how many postponement outcomes (hits + timeouts)
	// must be observed before the timeout rate is judged at all.
	MinSamples int
	// Window bounds the sample history: when the sample count reaches
	// Window, both counters are halved, giving an exponentially decayed
	// recent-rate estimate.
	Window int
	// TimeoutRate is the trip threshold: the breaker opens when
	// timeouts/samples >= TimeoutRate with at least MinSamples samples.
	TimeoutRate float64
	// Backoff is the initial open duration before the first half-open
	// probe. Each failed probe doubles it, up to MaxBackoff.
	Backoff time.Duration
	// MaxBackoff caps the exponential backoff.
	MaxBackoff time.Duration
}

// DefaultBreakerConfig returns the production defaults: judge after 8
// postponement outcomes over a 64-sample decay window, trip at a 90%
// timeout rate, back off 1s doubling to 30s.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{
		MinSamples:  8,
		Window:      64,
		TimeoutRate: 0.9,
		Backoff:     time.Second,
		MaxBackoff:  30 * time.Second,
	}
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	d := DefaultBreakerConfig()
	if c.MinSamples <= 0 {
		c.MinSamples = d.MinSamples
	}
	if c.Window < c.MinSamples {
		c.Window = max(d.Window, c.MinSamples)
	}
	if c.TimeoutRate <= 0 || c.TimeoutRate > 1 {
		c.TimeoutRate = d.TimeoutRate
	}
	if c.Backoff <= 0 {
		c.Backoff = d.Backoff
	}
	if c.MaxBackoff < c.Backoff {
		c.MaxBackoff = max(d.MaxBackoff, c.Backoff)
	}
	return c
}

// Transition reports a breaker state change caused by Allow or an
// outcome report, so the caller can log the corresponding incident.
type Transition int

// Breaker transitions.
const (
	// TransitionNone: no state change.
	TransitionNone Transition = iota
	// TransitionTripped: the timeout rate crossed the threshold and the
	// breaker opened.
	TransitionTripped
	// TransitionProbe: an open breaker's backoff expired and this
	// arrival was admitted as the half-open probe.
	TransitionProbe
	// TransitionRearmed: the probe hit; the breaker closed and the
	// backoff reset.
	TransitionRearmed
	// TransitionReopened: the probe timed out; the breaker re-opened
	// with a doubled backoff.
	TransitionReopened
)

// Breaker is a per-breakpoint circuit breaker. The closed-state fast
// path of Allow is a single atomic load, so healthy breakpoints pay
// nearly nothing for the protection.
type Breaker struct {
	state atomic.Int32

	mu        sync.Mutex
	cfg       BreakerConfig
	samples   int64
	timeouts  int64
	backoff   time.Duration
	openUntil time.Time
	trips     int64
	rearms    int64
}

// NewBreaker returns a closed breaker with the given configuration
// (zero fields take the defaults of DefaultBreakerConfig).
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow decides whether an arrival may enter the breakpoint machinery.
// admit=false means the arrival must be shed (pass through without
// postponement). The returned transition is TransitionProbe when this
// arrival was admitted as the half-open probe.
func (b *Breaker) Allow(now time.Time) (admit bool, tr Transition) {
	if BreakerState(b.state.Load()) == BreakerClosed {
		return true, TransitionNone
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch BreakerState(b.state.Load()) {
	case BreakerClosed: // raced with a re-arm
		return true, TransitionNone
	case BreakerHalfOpen:
		// Admit: a rendezvous probe needs a partner, so half-open
		// passes all arrivals until the first outcome report decides.
		return true, TransitionNone
	default: // open
		if now.Before(b.openUntil) {
			return false, TransitionNone
		}
		b.state.Store(int32(BreakerHalfOpen))
		return true, TransitionProbe
	}
}

// OnHit reports that an admitted arrival's postponement ended in a hit.
func (b *Breaker) OnHit(now time.Time) Transition {
	b.mu.Lock()
	defer b.mu.Unlock()
	if BreakerState(b.state.Load()) == BreakerHalfOpen {
		// Probe succeeded: close and reset history and backoff.
		b.state.Store(int32(BreakerClosed))
		b.samples, b.timeouts = 0, 0
		b.backoff = b.cfg.Backoff
		b.rearms++
		return TransitionRearmed
	}
	b.sample(false)
	return TransitionNone
}

// OnTimeout reports that an admitted arrival's postponement timed out.
func (b *Breaker) OnTimeout(now time.Time) Transition {
	b.mu.Lock()
	defer b.mu.Unlock()
	if BreakerState(b.state.Load()) == BreakerHalfOpen {
		// Probe failed: re-open with doubled backoff.
		b.backoff = min(2*b.backoff, b.cfg.MaxBackoff)
		b.openUntil = now.Add(b.backoff)
		b.state.Store(int32(BreakerOpen))
		b.trips++
		return TransitionReopened
	}
	b.sample(true)
	if BreakerState(b.state.Load()) == BreakerClosed &&
		b.samples >= int64(b.cfg.MinSamples) &&
		float64(b.timeouts) >= b.cfg.TimeoutRate*float64(b.samples) {
		if b.backoff <= 0 {
			b.backoff = b.cfg.Backoff
		}
		b.openUntil = now.Add(b.backoff)
		b.state.Store(int32(BreakerOpen))
		b.trips++
		return TransitionTripped
	}
	return TransitionNone
}

// sample records one postponement outcome with window decay. Called
// with b.mu held.
func (b *Breaker) sample(timedOut bool) {
	b.samples++
	if timedOut {
		b.timeouts++
	}
	if b.samples >= int64(b.cfg.Window) {
		b.samples /= 2
		b.timeouts /= 2
	}
}

// BreakerSnapshot is a point-in-time copy of a breaker's state for
// diagnostics.
type BreakerSnapshot struct {
	State     BreakerState
	Samples   int64
	Timeouts  int64
	Backoff   time.Duration
	OpenUntil time.Time
	Trips     int64
	Rearms    int64
}

// Snapshot returns a consistent copy of the breaker's counters.
func (b *Breaker) Snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		State:     BreakerState(b.state.Load()),
		Samples:   b.samples,
		Timeouts:  b.timeouts,
		Backoff:   b.backoff,
		OpenUntil: b.openUntil,
		Trips:     b.trips,
		Rearms:    b.rearms,
	}
}

// String formats the snapshot for logs.
func (s BreakerSnapshot) String() string {
	return fmt.Sprintf("%s samples=%d timeouts=%d backoff=%s trips=%d rearms=%d",
		s.State, s.Samples, s.Timeouts, s.Backoff, s.Trips, s.Rearms)
}
