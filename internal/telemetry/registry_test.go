package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"cbreak/internal/guard"
)

func TestNumWaitBucketsMatches(t *testing.T) {
	if len(WaitBuckets) != NumWaitBuckets {
		t.Fatalf("NumWaitBuckets = %d, len(WaitBuckets) = %d", NumWaitBuckets, len(WaitBuckets))
	}
}

func TestCatalogWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range Catalog() {
		if d.Name == "" || d.Help == "" {
			t.Errorf("descriptor %+v missing name or help", d)
		}
		if !strings.HasPrefix(d.Name, "cbreak_") {
			t.Errorf("%s: catalog names must be cbreak_-prefixed", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("duplicate catalog name %s", d.Name)
		}
		seen[d.Name] = true
		if d.Kind == Counter && !strings.HasSuffix(d.Name, "_total") {
			t.Errorf("%s: counters must end in _total", d.Name)
		}
		if d.Kind == HistogramKind && len(d.Buckets) == 0 {
			t.Errorf("%s: histogram without buckets", d.Name)
		}
		for i := 1; i < len(d.Buckets); i++ {
			if d.Buckets[i] <= d.Buckets[i-1] {
				t.Errorf("%s: buckets not ascending at %d", d.Name, i)
			}
		}
	}
}

func TestRegistryGatherAndCounterVec(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Desc: DescEngineEnabled, Value: 1})
	})
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Desc: DescIncidents, Labels: []string{"panic"}, Value: 5})
		emit(Sample{Desc: DescIncidents, Labels: []string{"stall"}, Value: 1})
	})

	samples := r.Gather()
	if len(samples) != 3 {
		t.Fatalf("gathered %d samples, want 3", len(samples))
	}
	if samples[0].Desc != DescEngineEnabled {
		t.Fatalf("first sample = %s, want the first collector's", samples[0].Desc.Name)
	}
	byLabel := map[string]float64{}
	for _, s := range samples[1:] {
		byLabel[s.Labels[0]] = s.Value
	}
	if byLabel["panic"] != 5 || byLabel["stall"] != 1 {
		t.Fatalf("labeled samples wrong: %v", byLabel)
	}
}

func TestWireBusCountsRecords(t *testing.T) {
	r := NewRegistry()
	b := NewBus()
	h := r.WireBus("engine", b)
	defer h.Detach()

	b.Publish(Record{Kind: RecordEvent})
	b.Publish(Record{Kind: RecordEvent})
	b.Publish(Record{Kind: RecordIncident})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cbreak_bus_records_total{kind="engine-event"} 2`,
		`cbreak_bus_records_total{kind="guard-incident"} 1`,
		`cbreak_bus_dropped_total{bus="engine"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(emit func(Sample)) {
		counts := make([]uint64, len(WaitBuckets))
		counts[0] = 2 // two obs ≤ 0.0001
		counts[3] = 1 // one obs ≤ 0.001
		emit(Sample{Desc: DescBPWait, Labels: []string{"bp"},
			Hist: &HistSample{BucketCounts: counts, Sum: 0.0012, Count: 4}})
		// Count 4 > bucketed 3: one observation above the top bound.
	})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE cbreak_bp_wait_seconds histogram",
		`cbreak_bp_wait_seconds_bucket{breakpoint="bp",le="0.0001"} 2`,
		`cbreak_bp_wait_seconds_bucket{breakpoint="bp",le="0.001"} 3`,
		`cbreak_bp_wait_seconds_bucket{breakpoint="bp",le="+Inf"} 4`,
		`cbreak_bp_wait_seconds_sum{breakpoint="bp"} 0.0012`,
		`cbreak_bp_wait_seconds_count{breakpoint="bp"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Cumulative buckets must be non-decreasing left to right.
	if strings.Index(out, `le="0.0001"} 2`) > strings.Index(out, `le="+Inf"}`) {
		t.Error("bucket order wrong")
	}
}

func TestWritePrometheusOrderingAndEscaping(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Desc: DescBPHits, Labels: []string{"z.bp"}, Value: 1})
		emit(Sample{Desc: DescBPHits, Labels: []string{`a"bp`}, Value: 2})
		emit(Sample{Desc: DescEngineEnabled, Value: 1})
	})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Catalog order: engine_enabled before bp_hits even though collected
	// after.
	if strings.Index(out, "cbreak_engine_enabled") > strings.Index(out, "cbreak_bp_hits_total") {
		t.Error("families not in catalog order")
	}
	// Samples within a family sorted by label value; quote escaped.
	if !strings.Contains(out, `cbreak_bp_hits_total{breakpoint="a\"bp"} 2`) {
		t.Errorf("escaped label missing:\n%s", out)
	}
	if strings.Index(out, `a\"bp`) > strings.Index(out, "z.bp") {
		t.Error("samples not label-sorted within family")
	}
	// Exactly one HELP/TYPE header per family.
	if n := strings.Count(out, "# TYPE cbreak_bp_hits_total"); n != 1 {
		t.Errorf("TYPE header count = %d, want 1", n)
	}
}

func TestNDJSONShapes(t *testing.T) {
	when := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

	evLine, err := MarshalNDJSON(Record{Kind: RecordEvent, Event: Event{
		Seq: 9, When: when, Kind: EventHit, Breakpoint: "bp", GID: 42, First: true}})
	if err != nil {
		t.Fatal(err)
	}
	var ev map[string]any
	if err := json.Unmarshal(evLine, &ev); err != nil {
		t.Fatal(err)
	}
	if ev["kind"] != "engine-event" || ev["event"] != "hit" ||
		ev["breakpoint"] != "bp" || ev["seq"] != float64(9) || ev["first"] != true {
		t.Fatalf("event shape wrong: %s", evLine)
	}

	inLine, err := MarshalNDJSON(Record{Kind: RecordIncident, Incident: guard.Incident{
		When: when, Kind: guard.KindOverloadShed, Breakpoint: "bp", GID: 7, Detail: "d"}})
	if err != nil {
		t.Fatal(err)
	}
	var in map[string]any
	if err := json.Unmarshal(inLine, &in); err != nil {
		t.Fatal(err)
	}
	if in["kind"] != "guard-incident" || in["incident"] != "overload-shed" || in["detail"] != "d" {
		t.Fatalf("incident shape wrong: %s", inLine)
	}
}
