package vclock

import "testing"

// equal reports component-wise equality (absent components are zero).
func equal(v, o VC) bool { return leq(v, o) && leq(o, v) }

// Empty clocks are the identity of the join lattice; Join must treat
// absent components as zero without special-casing.
func TestEmptyClockSemantics(t *testing.T) {
	empty := New()
	other := New()
	empty.Join(other)
	if len(empty) != 0 || !equal(empty, New()) {
		t.Fatalf("empty.Join(empty) = %v, want empty", empty)
	}

	v := vcFrom(2, 0, 1)
	joined := New()
	joined.Join(v)
	if !equal(joined, v) {
		t.Fatalf("empty.Join(v) = %v, want %v (empty is the join identity)", joined, v)
	}
}

// Join is idempotent: v ⊔ v = v, including through a clone, and the
// clone must not alias the original's storage.
func TestSelfJoinIdempotent(t *testing.T) {
	v := vcFrom(4, 7, 2)
	want := v.Clone()
	v.Join(v)
	if !equal(v, want) {
		t.Fatalf("v.Join(v) changed the clock: %v, want %v", v, want)
	}
	c := v.Clone()
	v.Join(c)
	if !equal(v, want) {
		t.Fatalf("v.Join(clone) changed the clock: %v, want %v", v, want)
	}
	c.Tick(1)
	if !equal(v, want) {
		t.Fatal("Clone shares storage with the original")
	}
}

// Wide clocks: many components, exercising the iteration-heavy paths
// (Join as component max, String building over a large support).
func TestWideClocks(t *testing.T) {
	const width = 1500
	a, b := New(), New()
	for id := uint64(1); id <= width; id++ {
		a.Set(id, id%17)
		b.Set(id, (id+9)%23)
	}
	j := a.Clone()
	j.Join(b)
	for id := uint64(1); id <= width; id++ {
		want := a.Get(id)
		if bt := b.Get(id); bt > want {
			want = bt
		}
		if j.Get(id) != want {
			t.Fatalf("join[%d] = %d, want %d", id, j.Get(id), want)
		}
	}

	if s := j.String(); len(s) < width {
		t.Fatalf("String over %d components suspiciously short: %d bytes", width, len(s))
	}
}
