package telemetry

import (
	"sync"
	"sync/atomic"
)

// This file is the registry: the binding between the metric catalog and
// live values. Metrics are *pulled* — a collector is a closure that
// reads existing engine state (atomic counters on shards, gauge loads)
// at scrape time and emits samples, so registering telemetry costs the
// trigger hot path nothing. The only push-shaped metric is the record
// count a wired bus tap maintains, one atomic add per record.

// Sample is one collected metric value.
type Sample struct {
	// Desc is the catalog descriptor this sample instantiates.
	Desc *Desc
	// Labels are the label values, parallel to Desc.Labels.
	Labels []string
	// Value is the counter or gauge value (unused for histograms).
	Value float64
	// Hist is the histogram payload (nil for counters and gauges).
	Hist *HistSample
}

// HistSample is one collected histogram.
type HistSample struct {
	// BucketCounts are per-bucket (non-cumulative) observation counts,
	// parallel to Desc.Buckets; observations above the last bound are in
	// Count but no bucket.
	BucketCounts []uint64
	// Sum is the sum of all observations.
	Sum float64
	// Count is the total observation count.
	Count uint64
}

// Collector emits zero or more samples when the registry gathers. It
// must be safe for concurrent use and must not block on engine locks —
// read atomics and snapshots, never arrival paths.
type Collector func(emit func(Sample))

// Registry gathers samples from registered collectors and renders them.
// The zero value is not usable; create registries with NewRegistry. All
// methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterCollector adds a collector. Collectors run in registration
// order at every Gather.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Gather runs every collector and returns the combined samples.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	cs := make([]Collector, len(r.collectors))
	copy(cs, r.collectors)
	r.mu.Unlock()
	var out []Sample
	for _, c := range cs {
		c(func(s Sample) { out = append(out, s) })
	}
	return out
}

// busTap is the counting tap WireBus attaches: per-kind record totals
// in a fixed atomic array, since events and incidents arrive at engine
// rate.
type busTap struct {
	counts [NumRecordKinds]atomic.Int64
}

// Deliver implements Tap.
func (t *busTap) Deliver(rec Record) {
	if k := int(rec.Kind); k >= 0 && k < NumRecordKinds {
		t.counts[k].Add(1)
	}
}

// WireBus attaches a counting tap to the bus and registers the
// stream-derived collectors on the registry: records by kind
// (cbreak_bus_records_total) and the bus's drop counter labeled with
// name (cbreak_bus_dropped_total). It returns the tap handle so a
// consumer that outlives the bus can detach.
func (r *Registry) WireBus(name string, bus *Bus) *TapHandle {
	t := &busTap{}
	h := bus.AttachTap(t)
	r.RegisterCollector(func(emit func(Sample)) {
		for k := 0; k < NumRecordKinds; k++ {
			emit(Sample{Desc: DescBusRecords,
				Labels: []string{RecordKind(k).String()},
				Value:  float64(t.counts[k].Load())})
		}
		emit(Sample{Desc: DescBusDropped, Labels: []string{name},
			Value: float64(bus.Dropped())})
	})
	return h
}
