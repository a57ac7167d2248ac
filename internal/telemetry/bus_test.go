package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbreak/internal/guard"
)

func TestBusPublishNoListeners(t *testing.T) {
	b := NewBus()
	// Must be a no-op, not a panic, and must not count drops.
	b.Publish(Record{Kind: RecordEvent})
	if b.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", b.Dropped())
	}
}

func TestBusTapSynchronousDelivery(t *testing.T) {
	b := NewBus()
	var got []Record
	h := b.AttachTap(tapFunc(func(r Record) { got = append(got, r) }))
	b.Publish(Record{Kind: RecordEvent, Event: Event{Seq: 1, Breakpoint: "bp"}})
	b.Publish(Record{Kind: RecordIncident, Incident: guard.Incident{Kind: guard.KindPanic}})
	if len(got) != 2 {
		t.Fatalf("tap saw %d records, want 2", len(got))
	}
	if got[0].Event.Seq != 1 || got[1].Incident.Kind != guard.KindPanic {
		t.Fatalf("tap saw wrong records: %+v", got)
	}
	h.Detach()
	b.Publish(Record{Kind: RecordEvent})
	if len(got) != 2 {
		t.Fatalf("detached tap still receiving: %d records", len(got))
	}
	h.Detach() // idempotent
}

type tapFunc func(Record)

func (f tapFunc) Deliver(r Record) { f(r) }

func TestBusSubscriptionDeliveryAndCancel(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(4)
	b.Publish(Record{Kind: RecordEvent, Event: Event{Seq: 7}})
	select {
	case r := <-s.C():
		if r.Event.Seq != 7 {
			t.Fatalf("got seq %d, want 7", r.Event.Seq)
		}
	case <-time.After(time.Second):
		t.Fatal("subscription never received the record")
	}
	s.Cancel()
	select {
	case <-s.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed after Cancel")
	}
	s.Cancel() // idempotent
	b.Publish(Record{Kind: RecordEvent})
	select {
	case <-s.C():
		t.Fatal("cancelled subscription received a record")
	default:
	}
}

func TestBusSubscriptionDropsWhenFull(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(1)
	defer s.Cancel()
	b.Publish(Record{Kind: RecordEvent, Event: Event{Seq: 1}})
	b.Publish(Record{Kind: RecordEvent, Event: Event{Seq: 2}}) // buffer full → dropped
	if s.Drops() != 1 {
		t.Fatalf("Drops = %d, want 1", s.Drops())
	}
	if b.Dropped() != 1 {
		t.Fatalf("bus Dropped = %d, want 1", b.Dropped())
	}
	// The buffered record is intact — drops lose the newest, not the
	// oldest.
	r := <-s.C()
	if r.Event.Seq != 1 {
		t.Fatalf("buffered seq = %d, want 1", r.Event.Seq)
	}
}

func TestBusSubscribeMinimumBuffer(t *testing.T) {
	b := NewBus()
	s := b.Subscribe(0)
	defer s.Cancel()
	b.Publish(Record{Kind: RecordEvent})
	select {
	case <-s.C():
	default:
		t.Fatal("Subscribe(0) should still buffer one record")
	}
}

func TestBusConcurrentPublishAndChurn(t *testing.T) {
	b := NewBus()
	var tapCount atomic.Int64
	const publishers, perPublisher = 8, 500

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() { // constantly attach/detach listeners during publishing
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			h := b.AttachTap(tapFunc(func(Record) { tapCount.Add(1) }))
			s := b.Subscribe(2)
			h.Detach()
			s.Cancel()
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				b.Publish(Record{Kind: RecordEvent})
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	// Durability tap attached for the whole run must see every record.
	var total atomic.Int64
	h := b.AttachTap(tapFunc(func(Record) { total.Add(1) }))
	var wg2 sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for i := 0; i < perPublisher; i++ {
				b.Publish(Record{Kind: RecordEvent})
			}
		}()
	}
	wg2.Wait()
	h.Detach()
	if got := total.Load(); got != publishers*perPublisher {
		t.Fatalf("stable tap saw %d records, want %d", got, publishers*perPublisher)
	}
}

func TestRecordKindLabels(t *testing.T) {
	// The NDJSON "kind" discriminators must match the durable sink's
	// on-disk record kinds for the shared kinds, and stay stable for the
	// stream-only ones.
	want := map[RecordKind]string{
		RecordEvent:    "engine-event",
		RecordIncident: "guard-incident",
		RecordReport:   "waitgraph-report",
		RecordTrial:    "trial-outcome",
	}
	for k, label := range want {
		if k.String() != label {
			t.Errorf("RecordKind(%d).String() = %q, want %q", k, k.String(), label)
		}
	}
	if NumRecordKinds != len(want) {
		t.Errorf("NumRecordKinds = %d, want %d", NumRecordKinds, len(want))
	}
}

func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EventArrived:   "arrived",
		EventPostponed: "postponed",
		EventHit:       "hit",
		EventTimeout:   "timeout",
	}
	for k, label := range want {
		if k.String() != label {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, k.String(), label)
		}
	}
}
