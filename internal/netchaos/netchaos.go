// Package netchaos is the network chaos layer: a deterministic,
// seed-driven fault-injecting TCP proxy (proxy.go) and a load-generator
// client library with jittered exponential-backoff retries (client.go).
//
// The paper's guarantee is that concurrent breakpoints make Heisenbugs
// reproducible without ever deadlocking the program under test. That
// guarantee has to survive transports that are actively hostile: real
// deployments see latency spikes, connection resets, truncated writes,
// half-open drops, partitions, throttled links, and slow-loris clients.
// This package produces exactly those faults — but on a schedule that is
// a pure function of a seed, so a chaos run replays byte-identically
// under the same -seed and a fault observed once can be observed again.
//
// Determinism model: the schedule assigns every proxied connection an
// ordinal in accept order, and the ordinal's fault plan (Schedule.
// PlanFor) is derived from appkit.DeriveSeed(seed, ordinal) with a fixed
// draw order. Which goroutine's connection receives which ordinal still
// depends on scheduling — that is the nondeterminism under test — but
// the schedule itself (what faults ordinal N suffers, at which byte
// offsets, with which delays) is identical run-to-run. The determinism
// test pins Schedule.Describe to be byte-identical across instances
// built from the same seed.
//
// Blame localization: every injected fault is reported through
// Config.OnFault; integrations record it as a guard incident of kind
// net-fault-injected (guard.KindNetFault), keeping infrastructure noise
// cleanly separated from the application outcomes the campaign tables
// report — a transport reset must classify as infra-and-retry, never as
// the bug under reproduction.
package netchaos

import (
	"fmt"
	"strings"
	"time"

	"cbreak/internal/apps/appkit"
)

// FaultKind enumerates the injected network fault families.
type FaultKind int

// The fault families, in the order the schedule draws them.
const (
	// FaultLatency: fixed-plus-jittered delay before forwarded chunks.
	FaultLatency FaultKind = iota
	// FaultReset: the connection is closed abruptly (RST via zero
	// linger) after a scheduled number of forwarded bytes.
	FaultReset
	// FaultTruncate: the in-flight chunk is cut at a scheduled byte
	// offset and the connection closed cleanly — the peer sees a short,
	// syntactically torn message.
	FaultTruncate
	// FaultHalfOpen: the client→server direction silently stops
	// forwarding after a scheduled offset while both sockets stay open,
	// so the peer waits on a connection that will never deliver.
	FaultHalfOpen
	// FaultPartition: a full partition window — existing connections
	// are dropped and connections whose ordinals fall inside the window
	// are severed immediately after accept.
	FaultPartition
	// FaultThrottle: a bandwidth cap (bytes/second) on forwarded data.
	FaultThrottle
	// FaultSlowLoris: the connection trickles — tiny chunks with a
	// per-chunk delay — modelling a slow-loris peer.
	FaultSlowLoris

	faultKindCount
)

// String returns the fault-kind label used in incident details.
func (k FaultKind) String() string {
	switch k {
	case FaultLatency:
		return "latency"
	case FaultReset:
		return "reset"
	case FaultTruncate:
		return "truncate"
	case FaultHalfOpen:
		return "half-open"
	case FaultPartition:
		return "partition"
	case FaultThrottle:
		return "throttle"
	case FaultSlowLoris:
		return "slow-loris"
	default:
		return "unknown"
	}
}

// Kinds returns every fault kind, in schedule draw order.
func Kinds() []FaultKind {
	out := make([]FaultKind, faultKindCount)
	for i := range out {
		out[i] = FaultKind(i)
	}
	return out
}

// Faults selects which fault families a schedule draws from and how
// often. Rates are per-connection selection probabilities in [0, 1],
// resolved deterministically from the seed; zero-valued fields disable
// their family.
type Faults struct {
	// Latency is the base delay injected before each forwarded chunk of
	// every connection (0 disables latency injection).
	Latency time.Duration
	// LatencyJitter bounds the extra per-connection delay drawn on top
	// of Latency (defaults to Latency when latency injection is on).
	LatencyJitter time.Duration

	// ResetRate selects connections that are abruptly reset mid-stream.
	ResetRate float64
	// TruncateRate selects connections whose stream is cut mid-chunk.
	TruncateRate float64
	// HalfOpenRate selects connections that go half-open: the
	// client→server direction silently stops delivering.
	HalfOpenRate float64
	// ThrottleRate selects connections that are bandwidth-capped.
	ThrottleRate float64
	// ThrottleBps is the cap for throttled connections in bytes/second
	// (default 2048).
	ThrottleBps int
	// SlowLorisRate selects connections that trickle tiny chunks.
	SlowLorisRate float64

	// PartitionAt begins a full partition at that 1-based connection
	// ordinal (0 = never): all live connections are dropped and the
	// next PartitionFor ordinals are severed on accept.
	PartitionAt int
	// PartitionFor is the width of the partition window in connection
	// ordinals (default 8 when PartitionAt > 0).
	PartitionFor int
}

// partitionWidth returns the effective partition window width.
func (f Faults) partitionWidth() int {
	if f.PartitionAt <= 0 {
		return 0
	}
	if f.PartitionFor <= 0 {
		return 8
	}
	return f.PartitionFor
}

// throttleBps returns the effective throttle cap.
func (f Faults) throttleBps() int {
	if f.ThrottleBps <= 0 {
		return 2048
	}
	return f.ThrottleBps
}

// ConnPlan is the resolved fault plan of one proxied connection: a pure
// function of (schedule seed, connection ordinal). Byte offsets count
// forwarded payload bytes across both directions.
type ConnPlan struct {
	// Conn is the 1-based connection ordinal in accept order.
	Conn int
	// Latency is the per-chunk injected delay (0 = none).
	Latency time.Duration
	// ResetAfter is the forwarded-byte offset at which the connection
	// is reset (-1 = never).
	ResetAfter int64
	// TruncateAfter is the forwarded-byte offset at which the stream is
	// cut (-1 = never).
	TruncateAfter int64
	// HalfOpenAfter is the forwarded-byte offset after which the
	// client→server direction silently drops (-1 = never).
	HalfOpenAfter int64
	// ThrottleBps caps forwarding bandwidth (0 = unlimited).
	ThrottleBps int
	// SlowChunk bounds bytes per forwarded write (0 = unlimited) and
	// SlowDelay is the pause between those trickled writes.
	SlowChunk int
	SlowDelay time.Duration
	// Partitioned marks an ordinal inside the partition window: the
	// connection is severed immediately after accept.
	Partitioned bool
}

// String renders the plan compactly (the unit of Schedule.Describe).
func (pl ConnPlan) String() string {
	var parts []string
	if pl.Partitioned {
		parts = append(parts, "partitioned")
	}
	if pl.Latency > 0 {
		parts = append(parts, fmt.Sprintf("latency=%s", pl.Latency))
	}
	if pl.ResetAfter >= 0 {
		parts = append(parts, fmt.Sprintf("reset@%d", pl.ResetAfter))
	}
	if pl.TruncateAfter >= 0 {
		parts = append(parts, fmt.Sprintf("truncate@%d", pl.TruncateAfter))
	}
	if pl.HalfOpenAfter >= 0 {
		parts = append(parts, fmt.Sprintf("half-open@%d", pl.HalfOpenAfter))
	}
	if pl.ThrottleBps > 0 {
		parts = append(parts, fmt.Sprintf("throttle=%dBps", pl.ThrottleBps))
	}
	if pl.SlowChunk > 0 {
		parts = append(parts, fmt.Sprintf("slow-loris=%dB/%s", pl.SlowChunk, pl.SlowDelay))
	}
	if len(parts) == 0 {
		parts = append(parts, "clean")
	}
	return fmt.Sprintf("conn %d: %s", pl.Conn, strings.Join(parts, " "))
}

// Schedule derives per-connection fault plans from a seed. Two
// schedules built from the same (seed, faults) produce identical plans
// for every ordinal; that is the replayability contract the chaos tests
// pin.
type Schedule struct {
	seed   int64
	faults Faults
}

// NewSchedule returns the deterministic schedule for (seed, faults).
func NewSchedule(seed int64, f Faults) *Schedule {
	return &Schedule{seed: seed, faults: f}
}

// PlanFor resolves the fault plan of the conn-th connection (1-based,
// accept order). Pure: safe to call concurrently and repeatedly, and
// every draw happens in a fixed order so plans never depend on which
// faults other connections suffered.
func (s *Schedule) PlanFor(conn int) ConnPlan {
	r := appkit.DeriveStream(s.seed, int64(conn))
	pl := ConnPlan{Conn: conn, ResetAfter: -1, TruncateAfter: -1, HalfOpenAfter: -1}
	f := s.faults
	if w := f.partitionWidth(); w > 0 && conn >= f.PartitionAt && conn < f.PartitionAt+w {
		pl.Partitioned = true
	}
	// Fixed draw order — one draw pair per family, taken even when the
	// family loses the selection roll, so each field's value depends
	// only on (seed, conn, field), never on the other fields' rates.
	if latency, jitter := f.Latency, f.LatencyJitter; latency > 0 {
		if jitter <= 0 {
			jitter = latency
		}
		pl.Latency = latency + r.Duration(jitter)
	} else {
		r.Next()
	}
	// Byte offsets are drawn in [0, 64): the servers speak short line
	// protocols, so a trigger offset must land within a connection's
	// first few dozen payload bytes to ever fire.
	if roll, off := r.Float64(), r.Next()%64; roll < f.ResetRate {
		pl.ResetAfter = int64(off)
	}
	if roll, off := r.Float64(), r.Next()%64; roll < f.TruncateRate {
		pl.TruncateAfter = int64(off)
	}
	if roll, off := r.Float64(), r.Next()%64; roll < f.HalfOpenRate {
		pl.HalfOpenAfter = int64(off)
	}
	if roll := r.Float64(); roll < f.ThrottleRate {
		pl.ThrottleBps = f.throttleBps()
	}
	if roll, chunk, delay := r.Float64(), 1+r.Intn(4), time.Millisecond+r.Duration(4*time.Millisecond); roll < f.SlowLorisRate {
		pl.SlowChunk = chunk
		pl.SlowDelay = delay
	}
	return pl
}

// Describe renders the plans of the first n connections, one per line —
// the replayability fingerprint the determinism tests compare.
func (s *Schedule) Describe(n int) string {
	var b strings.Builder
	for conn := 1; conn <= n; conn++ {
		fmt.Fprintln(&b, s.PlanFor(conn).String())
	}
	return b.String()
}

// FaultEvent reports one injected fault to Config.OnFault.
type FaultEvent struct {
	// Conn is the connection ordinal the fault hit (0 for faults not
	// tied to one connection).
	Conn int
	// Kind is the fault family.
	Kind FaultKind
	// Detail is a human-readable elaboration.
	Detail string
}

// String formats the event the way incident logs record it.
func (ev FaultEvent) String() string {
	return fmt.Sprintf("conn %d: %s (%s)", ev.Conn, ev.Kind, ev.Detail)
}
