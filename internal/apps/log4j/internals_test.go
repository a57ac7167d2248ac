package log4j

import (
	"fmt"
	"testing"
	"time"

	"cbreak/internal/core"
)

// quietAppender returns an appender with its breakpoints off. Its
// dispatcher polls only once a minute, so a dispatcher the tests have
// seen parked stays parked until it is notified.
func quietAppender(buf int) *AsyncAppender {
	e := core.NewEngine()
	e.SetEnabled(false)
	return NewAsyncAppender(buf, &Config{Engine: e, Poll: time.Minute})
}

// awaitParked waits until the dispatcher is parked on its data
// condition. Close (site 277) and SetBufferSize (site 236) notify
// lossily by design: a request sent while the dispatcher is between its
// checks and its wait is never acted on. That is the seeded bug the
// contention tests reproduce, not what these tests check, so they
// deliver each request to a parked dispatcher.
func awaitParked(t *testing.T, app *AsyncAppender) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for app.data.Waiters() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never parked")
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitExit waits a bounded time for the dispatcher to exit after Close.
// If it does not, it tears the appender down through the dead switch, so
// a regression fails in seconds instead of hanging the package.
func awaitExit(t *testing.T, app *AsyncAppender, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		teardown(app, done)
		t.Fatal("dispatcher never exited after close")
	}
}

// teardown stops the dispatcher through the dead switch, waking it until
// it has exited (it may park again between the switch and a wakeup).
func teardown(app *AsyncAppender, done <-chan struct{}) {
	app.dead.Store(true)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		app.data.NotifyAll()
		select {
		case <-done:
			return
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestAppendAndDispatcherDrain(t *testing.T) {
	app := quietAppender(8)
	done := make(chan struct{})
	go app.Dispatcher(done)
	for i := 0; i < 20; i++ {
		app.Append(Event{Seq: i, Msg: fmt.Sprintf("m%d", i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for app.Dispatched() != 20 {
		if time.Now().After(deadline) {
			t.Fatalf("dispatched %d/20", app.Dispatched())
		}
		time.Sleep(time.Millisecond)
	}
	awaitParked(t, app)
	app.Close()
	awaitExit(t, app, done)
	if len(app.target.lines) != 20 {
		t.Fatalf("file appender lines = %d", len(app.target.lines))
	}
}

func TestAppendBlocksWhenBufferFull(t *testing.T) {
	app := quietAppender(2)
	// No dispatcher: the third append must block on the full buffer.
	app.Append(Event{Seq: 0, Msg: "a"})
	app.Append(Event{Seq: 1, Msg: "b"})
	third := make(chan struct{})
	go func() {
		app.Append(Event{Seq: 2, Msg: "c"})
		close(third)
	}()
	select {
	case <-third:
		t.Fatal("append did not block on a full buffer")
	case <-time.After(30 * time.Millisecond):
	}
	// Start the dispatcher; the blocked append must complete.
	done := make(chan struct{})
	go app.Dispatcher(done)
	select {
	case <-third:
	case <-time.After(5 * time.Second):
		teardown(app, done)
		t.Fatal("blocked append never released")
	}
	awaitParked(t, app)
	app.Close()
	awaitExit(t, app, done)
}

func TestSetBufferSizeAppliedByDispatcher(t *testing.T) {
	app := quietAppender(4)
	done := make(chan struct{})
	go app.Dispatcher(done)
	app.Append(Event{Seq: 0, Msg: "warm"})
	awaitParked(t, app)
	acked := make(chan struct{})
	go func() {
		app.SetBufferSize(16) // returns on the dispatcher's ack
		close(acked)
	}()
	select {
	case <-acked:
	case <-time.After(5 * time.Second):
		teardown(app, done) // the dead switch also ends the ack wait
		t.Fatal("resize never acknowledged")
	}
	app.m.Lock()
	got := app.bufferSize
	app.m.Unlock()
	if got != 16 {
		t.Fatalf("bufferSize = %d after ack", got)
	}
	awaitParked(t, app)
	app.Close()
	awaitExit(t, app, done)
}

func TestDeadTeardownUnblocksEverything(t *testing.T) {
	app := quietAppender(1)
	app.Append(Event{Seq: 0, Msg: "fill"})
	blocked := make(chan struct{})
	go func() {
		app.Append(Event{Seq: 1, Msg: "stuck"}) // no dispatcher: blocks
		close(blocked)
	}()
	time.Sleep(10 * time.Millisecond)
	app.dead.Store(true)
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("dead switch did not unblock the producer")
	}
}

func TestPairStringAndSites(t *testing.T) {
	p := Pair{First: S100, Second: S309}
	if p.String() != "100 -> 309" {
		t.Fatalf("Pair.String = %q", p.String())
	}
	if S236.String() != "236" {
		t.Fatalf("Site.String = %q", S236.String())
	}
}
