package appkit

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestStatusStrings(t *testing.T) {
	cases := map[Status]string{
		OK: "ok", Exception: "exception", Stall: "stall", TestFail: "test fail",
		Crash: "crash", LogCorrupt: "log corruption", LogOmission: "log omission",
		LogDisorder: "log disorder", Status(99): "unknown",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if OK.Buggy() {
		t.Error("OK must not be buggy")
	}
	for _, s := range []Status{Exception, Stall, TestFail, Crash, LogCorrupt, LogOmission, LogDisorder} {
		if !s.Buggy() {
			t.Errorf("%v should be buggy", s)
		}
	}
}

func TestRunWithDeadlineCompletes(t *testing.T) {
	r := RunWithDeadline(time.Second, func() Result {
		return Result{Status: OK}
	})
	if r.Status != OK || r.Elapsed <= 0 {
		t.Fatalf("result = %+v", r)
	}
}

func TestRunWithDeadlineStall(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	r := RunWithDeadline(30*time.Millisecond, func() Result {
		<-block
		return Result{Status: OK}
	})
	if r.Status != Stall {
		t.Fatalf("status = %v, want stall", r.Status)
	}
	if r.Elapsed < 25*time.Millisecond {
		t.Fatalf("stall elapsed = %v", r.Elapsed)
	}
}

func TestRunWithDeadlinePanic(t *testing.T) {
	r := RunWithDeadline(time.Second, func() Result {
		panic("index out of range")
	})
	if r.Status != Exception || !strings.Contains(r.Detail, "index out of range") {
		t.Fatalf("result = %+v", r)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Status: OK, Elapsed: time.Second}
	if !strings.Contains(r.String(), "ok") {
		t.Fatalf("String = %q", r.String())
	}
	r = Result{Status: Stall, Detail: "x", Elapsed: time.Second, BPHit: true}
	if !strings.Contains(r.String(), "stall: x") || !strings.Contains(r.String(), "bp=true") {
		t.Fatalf("String = %q", r.String())
	}
}

func TestStatusJSONRoundTrip(t *testing.T) {
	for s := OK; s <= WorkerCrash; s++ {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var got Status
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if got != s {
			t.Fatalf("round trip %v -> %s -> %v", s, data, got)
		}
	}
	var bad Status
	if err := json.Unmarshal([]byte(`"not a status"`), &bad); err == nil {
		t.Fatal("unknown label should fail to unmarshal")
	}
}

func TestStatusClassification(t *testing.T) {
	for s := OK; s <= WorkerCrash; s++ {
		infra := s == TrialTimeout || s == WorkerCrash
		if s.Infrastructure() != infra {
			t.Fatalf("%v Infrastructure() = %v", s, s.Infrastructure())
		}
		buggy := s != OK && !infra
		if s.Buggy() != buggy {
			t.Fatalf("%v Buggy() = %v", s, s.Buggy())
		}
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	want := Result{Status: Stall, Detail: "lost wakeup", Elapsed: 1500 * time.Millisecond, BPHit: true}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	// The wire format is the greppable flat object the checkpoint
	// journal stores.
	for _, frag := range []string{`"status":"stall"`, `"detail":"lost wakeup"`, `"elapsed_ns":1500000000`, `"bp_hit":true`} {
		if !strings.Contains(string(data), frag) {
			t.Fatalf("wire form %s missing %s", data, frag)
		}
	}
	var got Result
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
}

func TestSeededJitterIsDeterministic(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		SeedJitter(seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = JitterDuration(time.Second)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded stream diverged at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= time.Second {
			t.Fatalf("jitter %v outside [0, 1s)", a[i])
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter streams")
	}
	if JitterDuration(0) != 0 || JitterDuration(-time.Second) != 0 {
		t.Fatal("non-positive scale should yield zero jitter")
	}
}

func TestStreamBackoff(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name        string
		base, max   time.Duration
		n           int
		wantCeiling time.Duration // d before jitter: the delay lies in [d/2, d]
	}{
		{"no failures yet", 10 * ms, time.Second, 0, 10 * ms},
		{"negative n is no doubling", 10 * ms, time.Second, -3, 10 * ms},
		{"doubled per failure", 10 * ms, time.Second, 3, 80 * ms},
		{"capped", 10 * ms, 100 * ms, 4, 100 * ms},
		{"capped without overflow", 10 * ms, 100 * ms, 200, 100 * ms},
		{"base above the cap", time.Second, 100 * ms, 0, 100 * ms},
		{"non-positive base takes the cap", 0, 100 * ms, 2, 100 * ms},
	}
	for _, c := range cases {
		for seed := int64(0); seed < 50; seed++ {
			got := NewStream(seed).Backoff(c.base, c.max, c.n)
			d := c.wantCeiling
			if got < d/2 || got > d {
				t.Fatalf("%s, seed %d: %v outside [%v, %v]", c.name, seed, got, d/2, d)
			}
			// One draw from the stream, the same for equal seeds.
			if want := d/2 + NewStream(seed).Duration(d/2+1); got != want {
				t.Fatalf("%s, seed %d: %v, want %v", c.name, seed, got, want)
			}
		}
	}
	// Backoff takes exactly one draw: the stream goes on where a single
	// Duration draw would leave it.
	a, b := NewStream(7), NewStream(7)
	a.Backoff(10*ms, time.Second, 1)
	b.Next()
	if a.Next() != b.Next() {
		t.Fatal("Backoff did not take exactly one draw from the stream")
	}
}
