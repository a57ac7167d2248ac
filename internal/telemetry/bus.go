package telemetry

import (
	"sync"
	"sync/atomic"
)

// This file is the subscription bus: the single fan-out every telemetry
// emission path publishes into. It replaces three bespoke fan-outs that
// had accreted on the engine (the durable-sink atomic pointer, the
// incident log's direct tee, the wait-graph supervisor's report
// callback) with one primitive offering two delivery modes:
//
//   - Taps are synchronous: Deliver runs on the publishing goroutine,
//     exactly like the old DurableSink contract, so a crash-safe
//     journal tap loses nothing a crash would not have lost anyway.
//     Taps must be fast and must never call back into the publisher.
//   - Subscriptions are asynchronous: a bounded channel the publisher
//     never blocks on. A full subscriber drops the record and the drop
//     is counted — a slow NDJSON client can never stall a breakpoint
//     arrival.
//
// Publish with no listeners is one atomic load and a nil check, which
// is what keeps the bus on the trigger hot path: it costs exactly what
// the old "is a durable sink installed" check cost.

// Tap receives records synchronously on the publishing goroutine.
type Tap interface {
	Deliver(Record)
}

// listenerSet is the immutable listener snapshot Publish iterates.
// Attach/Subscribe/detach build a new set and swap it in (copy on
// write), so Publish never takes the mutex.
type listenerSet struct {
	taps []tapEntry
	subs []*Subscription
}

type tapEntry struct {
	id  uint64
	tap Tap
}

// Bus is a lock-free-publish, copy-on-write-subscribe fan-out of
// telemetry records. The zero value is not usable; create buses with
// NewBus. All methods are safe for concurrent use.
type Bus struct {
	set     atomic.Pointer[listenerSet]
	mu      sync.Mutex // serializes listener-set rewrites only
	nextID  atomic.Uint64
	dropped atomic.Int64
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Publish delivers rec to every attached tap (synchronously) and every
// subscription (non-blocking; a full subscriber drops the record). With
// no listeners it is a single atomic load.
func (b *Bus) Publish(rec Record) {
	set := b.set.Load()
	if set == nil {
		return
	}
	for _, t := range set.taps {
		t.tap.Deliver(rec)
	}
	for _, s := range set.subs {
		select {
		case s.ch <- rec:
		default:
			s.drops.Add(1)
			b.dropped.Add(1)
		}
	}
}

// Listening reports whether any tap or subscription is attached: the
// same single atomic load Publish starts with. A publisher whose record
// costs something to build (a clock read, a sequence number) checks it
// first and builds nothing when nobody listens.
func (b *Bus) Listening() bool { return b.set.Load() != nil }

// Dropped returns how many records were dropped across all of the bus's
// subscriptions (monotonic; taps never drop).
func (b *Bus) Dropped() int64 { return b.dropped.Load() }

// rewrite swaps in a listener set derived from the current one. Caller
// must hold b.mu.
func (b *Bus) rewriteLocked(f func(old *listenerSet) *listenerSet) {
	old := b.set.Load()
	if old == nil {
		old = &listenerSet{}
	}
	next := f(old)
	if len(next.taps) == 0 && len(next.subs) == 0 {
		b.set.Store(nil)
		return
	}
	b.set.Store(next)
}

// TapHandle identifies one attached tap for detachment.
type TapHandle struct {
	b  *Bus
	id uint64
}

// AttachTap attaches a synchronous tap and returns its handle. The tap
// runs on every publishing goroutine; it must be fast and must never
// call back into the publisher.
func (b *Bus) AttachTap(t Tap) *TapHandle {
	h := &TapHandle{b: b, id: b.nextID.Add(1)}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rewriteLocked(func(old *listenerSet) *listenerSet {
		next := &listenerSet{subs: old.subs}
		next.taps = append(append([]tapEntry(nil), old.taps...), tapEntry{id: h.id, tap: t})
		return next
	})
	return h
}

// Detach removes the tap. Idempotent; records being published
// concurrently with the detach may still be delivered once more.
func (h *TapHandle) Detach() {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	h.b.rewriteLocked(func(old *listenerSet) *listenerSet {
		next := &listenerSet{subs: old.subs}
		for _, t := range old.taps {
			if t.id != h.id {
				next.taps = append(next.taps, t)
			}
		}
		return next
	})
}

// Subscription is one asynchronous bus listener: a bounded channel of
// records plus a drop counter. Consume from C, checking Done to observe
// cancellation; the record channel is never closed (a publisher racing
// a Cancel may still complete a buffered send), so ranging over C alone
// would never terminate.
type Subscription struct {
	b     *Bus
	id    uint64
	ch    chan Record
	done  chan struct{}
	once  sync.Once
	drops atomic.Int64
}

// Subscribe attaches an asynchronous listener with the given channel
// capacity (minimum 1). Cancel it to detach.
func (b *Bus) Subscribe(buf int) *Subscription {
	if buf < 1 {
		buf = 1
	}
	s := &Subscription{b: b, id: b.nextID.Add(1),
		ch: make(chan Record, buf), done: make(chan struct{})}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rewriteLocked(func(old *listenerSet) *listenerSet {
		next := &listenerSet{taps: old.taps}
		next.subs = append(append([]*Subscription(nil), old.subs...), s)
		return next
	})
	return s
}

// C returns the record channel. It is never closed; select against
// Done.
func (s *Subscription) C() <-chan Record { return s.ch }

// Done returns a channel closed when the subscription is cancelled.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Drops returns how many records this subscription missed because its
// channel was full.
func (s *Subscription) Drops() int64 { return s.drops.Load() }

// Cancel detaches the subscription. Idempotent. Records already
// buffered remain readable from C.
func (s *Subscription) Cancel() {
	s.once.Do(func() { close(s.done) })
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	s.b.rewriteLocked(func(old *listenerSet) *listenerSet {
		next := &listenerSet{taps: old.taps}
		for _, sub := range old.subs {
			if sub != s {
				next.subs = append(next.subs, sub)
			}
		}
		return next
	})
}
