package faultinject

import (
	"errors"
	"testing"
)

func TestCrashPlanNeverCrashesAtZero(t *testing.T) {
	p := NewCrashPlan(0)
	for i := 0; i < 10; i++ {
		allow, err := p.Point("write", 100)
		if err != nil || allow != 100 {
			t.Fatalf("point %d: allow=%d err=%v", i, allow, err)
		}
	}
	if p.Crashed() {
		t.Fatal("counting plan crashed")
	}
	if p.Count() != 10 {
		t.Fatalf("Count = %d, want 10", p.Count())
	}
}

func TestCrashPlanDiesAtKAndStaysDead(t *testing.T) {
	p := NewCrashPlan(3)
	for i := 1; i <= 2; i++ {
		if _, err := p.Point("write", 10); err != nil {
			t.Fatalf("point %d died early: %v", i, err)
		}
	}
	allow, err := p.Point("sync", 0)
	if !errors.Is(err, ErrCrashed) || allow != 0 {
		t.Fatalf("fatal point: allow=%d err=%v", allow, err)
	}
	// Dead is dead: every later point fails without advancing.
	for i := 0; i < 3; i++ {
		if _, err := p.Point("rename", 0); !errors.Is(err, ErrCrashed) {
			t.Fatalf("post-mortem point succeeded: %v", err)
		}
	}
	if p.Count() != 3 {
		t.Fatalf("Count = %d, want 3 (dead points don't count)", p.Count())
	}
	pts := p.points
	if len(pts) != 3 || !pts[2].Fatal || pts[2].Site != "sync" {
		t.Fatalf("points = %+v", pts)
	}
}

func TestCrashPlanPartialWrite(t *testing.T) {
	p := NewCrashPlan(1).WithPartialWrite(7)
	allow, err := p.Point("write", 100)
	if !errors.Is(err, ErrCrashed) || allow != 7 {
		t.Fatalf("allow=%d err=%v, want 7 bytes then crash", allow, err)
	}

	// A partial budget larger than the write lets the whole write through.
	p = NewCrashPlan(1).WithPartialWrite(500)
	allow, err = p.Point("write", 100)
	if !errors.Is(err, ErrCrashed) || allow != 100 {
		t.Fatalf("allow=%d err=%v, want full 100 then crash", allow, err)
	}
}
