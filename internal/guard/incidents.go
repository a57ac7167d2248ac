package guard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// IncidentKind classifies an absorbed failure or a hardening state
// change.
type IncidentKind int

// Incident kinds.
const (
	// KindPanic: a user closure (predicate or action) panicked and was
	// absorbed by the engine.
	KindPanic IncidentKind = iota
	// KindStall: an action ran longer than the handshake budget,
	// leaving its partner to proceed on the defensive timeout.
	KindStall
	// KindForceRelease: an operator force-released a postponed
	// goroutine (cbserverd's admin /release).
	KindForceRelease
	// KindBreakerTrip: a breakpoint's circuit breaker tripped open.
	KindBreakerTrip
	// KindBreakerProbe: an open breaker admitted a half-open probe.
	KindBreakerProbe
	// KindBreakerRearm: a half-open probe succeeded and the breaker
	// closed again.
	KindBreakerRearm
	// KindCycleBreak: the wait-graph supervisor force-released a
	// postponed goroutine to break a lock cycle it participated in.
	KindCycleBreak
	// KindDeadlockConfirmed: the wait-graph supervisor confirmed an
	// application-only lock cycle (a true deadlock, no postponement
	// edge to break).
	KindDeadlockConfirmed
	// KindOverloadShed: an arrival was shed without postponement
	// because the engine's postponed population exceeded its
	// configured overload bounds.
	KindOverloadShed
	// KindNetFault: an injected network fault (chaos-proxy latency,
	// reset, truncation, half-open drop, partition, throttle, or
	// slow-loris trickle) was recorded against this run's transport.
	// These are infrastructure noise by construction — the blame
	// localization that keeps them from being mistaken for application
	// bugs depends on the kind being distinct.
	KindNetFault
)

const incidentKindCount = int(KindNetFault) + 1

// Kinds returns every incident kind, in declaration order, for
// consumers that aggregate counts across all kinds (campaign trial
// records, metrics exporters).
func Kinds() []IncidentKind {
	out := make([]IncidentKind, incidentKindCount)
	for i := range out {
		out[i] = IncidentKind(i)
	}
	return out
}

// String returns the incident-kind label.
func (k IncidentKind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindStall:
		return "stall"
	case KindForceRelease:
		return "force-release"
	case KindBreakerTrip:
		return "breaker-trip"
	case KindBreakerProbe:
		return "breaker-probe"
	case KindBreakerRearm:
		return "breaker-rearm"
	case KindCycleBreak:
		return "cycle-break"
	case KindDeadlockConfirmed:
		return "deadlock-confirmed"
	case KindOverloadShed:
		return "overload-shed"
	case KindNetFault:
		return "net-fault-injected"
	default:
		return "unknown"
	}
}

// Incident is one entry of the hardening layer's incident log.
type Incident struct {
	// When is the incident timestamp.
	When time.Time
	// Kind classifies the incident.
	Kind IncidentKind
	// Breakpoint is the breakpoint involved.
	Breakpoint string
	// GID is the goroutine involved, when known (0 otherwise).
	GID uint64
	// Detail is a human-readable description (panic value, stall
	// duration, backoff, ...).
	Detail string
}

// String formats the incident for logs.
func (in Incident) String() string {
	return fmt.Sprintf("[%s] %s g%d: %s", in.Kind, in.Breakpoint, in.GID, in.Detail)
}

// IncidentLog is a bounded ring of incidents with per-kind running
// totals. The totals are monotonic even after old entries rotate out of
// the ring. The ring grows as incidents arrive, so a log that sees few
// costs little. The zero value is ready to use.
type IncidentLog struct {
	mu   sync.Mutex
	buf  []Incident
	next int // the oldest entry once buf is full, else 0

	counts [incidentKindCount]atomic.Int64
}

const incidentLogCapacity = 256

// Record appends an incident to the log.
func (l *IncidentLog) Record(in Incident) {
	if in.When.IsZero() {
		in.When = time.Now()
	}
	if k := int(in.Kind); k >= 0 && k < incidentKindCount {
		l.counts[k].Add(1)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) < incidentLogCapacity {
		l.buf = append(l.buf, in)
		return
	}
	l.buf[l.next] = in
	l.next = (l.next + 1) % incidentLogCapacity
}

// Snapshot returns the retained incidents, oldest first.
func (l *IncidentLog) Snapshot() []Incident {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) == 0 {
		return nil
	}
	out := make([]Incident, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	return append(out, l.buf[:l.next]...)
}

// Count returns the running total of incidents of the given kind,
// including entries that have rotated out of the ring.
func (l *IncidentLog) Count(k IncidentKind) int64 {
	if int(k) < 0 || int(k) >= incidentKindCount {
		return 0
	}
	return l.counts[k].Load()
}
