package vclock

import (
	"testing"
	"testing/quick"
)

func vcFrom(a, b, c uint64) VC {
	v := New()
	if a > 0 {
		v.Set(1, a)
	}
	if b > 0 {
		v.Set(2, b)
	}
	if c > 0 {
		v.Set(3, c)
	}
	return v
}

// leq reports v <= o component-wise.
func leq(v, o VC) bool {
	for k, t := range v {
		if t > o[k] {
			return false
		}
	}
	return true
}

func TestTickAndGet(t *testing.T) {
	v := New()
	if v.Get(7) != 0 {
		t.Fatal("fresh clock not zero")
	}
	if v.Tick(7) != 1 || v.Tick(7) != 2 {
		t.Fatal("Tick not incrementing")
	}
	if v.Get(7) != 2 {
		t.Fatal("Get after Tick wrong")
	}
}

func TestJoinIsComponentMax(t *testing.T) {
	a := vcFrom(1, 5, 0)
	b := vcFrom(3, 2, 4)
	a.Join(b)
	if a.Get(1) != 3 || a.Get(2) != 5 || a.Get(3) != 4 {
		t.Fatalf("Join wrong: %v", a)
	}
}

func TestEqualAndClone(t *testing.T) {
	a := vcFrom(1, 2, 3)
	b := a.Clone()
	if !equal(a, b) {
		t.Fatal("clone not equal")
	}
	b.Tick(1)
	if equal(a, b) {
		t.Fatal("modified clone still equal")
	}
	// Absent components are zero.
	x := vcFrom(1, 0, 0)
	y := New()
	y.Set(1, 1)
	y.Set(2, 0)
	if !equal(x, y) {
		t.Fatal("explicit zero component broke equality")
	}
}

func TestStringDeterministic(t *testing.T) {
	v := vcFrom(1, 2, 3)
	if v.String() != "{1:1 2:2 3:3}" {
		t.Fatalf("String = %q", v.String())
	}
	if New().String() != "{}" {
		t.Fatalf("empty String = %q", New().String())
	}
}

func TestEpoch(t *testing.T) {
	var z Epoch
	if !z.Zero() {
		t.Fatal("zero epoch not Zero")
	}
	e := Epoch{ID: 4, T: 9}
	if e.Zero() {
		t.Fatal("nonzero epoch is Zero")
	}
	vc := New()
	vc.Set(4, 9)
	if !e.LEqVC(vc) {
		t.Fatal("epoch should be <= its own frontier")
	}
	vc.Set(4, 8)
	if e.LEqVC(vc) {
		t.Fatal("epoch beyond frontier reported <=")
	}
	if e.String() != "9@4" {
		t.Fatalf("String = %q", e.String())
	}
}

// Property: Join is the least upper bound w.r.t. leq.
func TestJoinLUBProperty(t *testing.T) {
	gen := func(a, b, c uint8) VC { return vcFrom(uint64(a%5), uint64(b%5), uint64(c%5)) }
	f := func(a1, b1, c1, a2, b2, c2 uint8) bool {
		x, y := gen(a1, b1, c1), gen(a2, b2, c2)
		j := x.Clone()
		j.Join(y)
		return leq(x, j) && leq(y, j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
