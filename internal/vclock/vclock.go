// Package vclock implements vector clocks over goroutine ids, the
// happens-before substrate for the dynamic race detector in
// internal/detect. Clocks are sparse maps because goroutine ids are not
// dense small integers.
package vclock

import (
	"fmt"
	"sort"
	"strings"
)

// VC is a vector clock: a map from thread (goroutine) id to the last
// known logical time of that thread. The zero value is an empty clock.
type VC map[uint64]uint64

// New returns an empty vector clock.
func New() VC { return make(VC) }

// Clone returns a deep copy of the clock.
func (v VC) Clone() VC {
	c := make(VC, len(v))
	for k, t := range v {
		c[k] = t
	}
	return c
}

// Get returns the component for thread id (zero if absent).
func (v VC) Get(id uint64) uint64 { return v[id] }

// Set assigns the component for thread id.
func (v VC) Set(id, t uint64) { v[id] = t }

// Tick increments thread id's own component and returns the new value.
func (v VC) Tick(id uint64) uint64 {
	v[id]++
	return v[id]
}

// Join sets v to the component-wise maximum of v and o (the effect of
// receiving a message or acquiring a lock whose release clock is o).
func (v VC) Join(o VC) {
	for k, t := range o {
		if t > v[k] {
			v[k] = t
		}
	}
}

// String renders the clock deterministically for diagnostics.
func (v VC) String() string {
	ids := make([]uint64, 0, len(v))
	for k := range v {
		ids = append(ids, k)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", id, v[id])
	}
	b.WriteByte('}')
	return b.String()
}

// Epoch is a compact clock for the common FastTrack case where all prior
// accesses to a variable are totally ordered: a single (thread, time)
// pair.
type Epoch struct {
	// ID is the thread the epoch belongs to.
	ID uint64
	// T is the thread's logical time at the access.
	T uint64
}

// Zero reports whether the epoch is the zero epoch (no access yet).
func (e Epoch) Zero() bool { return e.ID == 0 && e.T == 0 }

// LEqVC reports whether the epoch's event happens-before-or-equals the
// frontier vc (FastTrack's e <= V check: T <= vc[ID]).
func (e Epoch) LEqVC(vc VC) bool { return e.T <= vc[e.ID] }

// String renders the epoch.
func (e Epoch) String() string { return fmt.Sprintf("%d@%d", e.T, e.ID) }
