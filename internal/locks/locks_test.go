package locks

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLockUnlockHeldSet(t *testing.T) {
	m := NewMutex("a")
	if IsHeld(m) {
		t.Fatal("freshly created mutex reported held")
	}
	m.Lock()
	if !IsHeld(m) {
		t.Fatal("locked mutex not in held set")
	}
	if got := Held(); len(got) != 1 || got[0] != m {
		t.Fatalf("Held = %v", got)
	}
	m.Unlock()
	if IsHeld(m) {
		t.Fatal("unlocked mutex still in held set")
	}
}

func TestNestedHeldOrder(t *testing.T) {
	a, b := NewMutex("a"), NewMutex("b")
	a.Lock()
	b.Lock()
	held := Held()
	if len(held) != 2 || held[0] != a || held[1] != b {
		t.Fatalf("Held = %v, want [a b] in acquisition order", held)
	}
	b.Unlock()
	a.Unlock()
	if len(Held()) != 0 {
		t.Fatal("held set not empty after unlocks")
	}
}

func TestHeldIsPerGoroutine(t *testing.T) {
	m := NewMutex("g")
	m.Lock()
	defer m.Unlock()
	ch := make(chan bool)
	go func() { ch <- IsHeld(m) }()
	if <-ch {
		t.Fatal("another goroutine sees the lock as held by itself")
	}
}

func TestMutualExclusion(t *testing.T) {
	m := NewMutex("mx")
	var counter int
	var wg sync.WaitGroup
	const goroutines, iters = 8, 1000
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				m.Lock()
				counter++
				m.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}

func TestTryLock(t *testing.T) {
	m := NewMutex("try")
	if !m.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if !IsHeld(m) {
		t.Fatal("TryLock did not record held set")
	}
	ch := make(chan bool)
	go func() { ch <- m.TryLock() }()
	if <-ch {
		t.Fatal("TryLock on held mutex succeeded")
	}
	m.Unlock()
}

func TestWithRunsUnderLock(t *testing.T) {
	m := NewMutex("with")
	ran := false
	m.With(func() {
		ran = true
		if !IsHeld(m) {
			t.Error("With body does not hold the lock")
		}
	})
	if !ran {
		t.Fatal("With did not run the body")
	}
	if IsHeld(m) {
		t.Fatal("With leaked the lock")
	}
}

func TestClassHeld(t *testing.T) {
	caret := NewClass("BasicCaret")
	other := NewClass("Other")
	m := NewClassMutex("c1", caret)
	if IsClassHeld(caret) {
		t.Fatal("class held before lock")
	}
	m.Lock()
	if !IsClassHeld(caret) {
		t.Fatal("class not held while lock held")
	}
	if IsClassHeld(other) {
		t.Fatal("wrong class reported held")
	}
	pred := ClassHeldPred(caret)
	if !pred() {
		t.Fatal("ClassHeldPred false while held")
	}
	m.Unlock()
	if pred() {
		t.Fatal("ClassHeldPred true after unlock")
	}
	if m.Class() != caret {
		t.Fatal("Class() mismatch")
	}
}

type recordingObserver struct {
	before, after, unlock atomic.Int32
	lastSite              atomic.Value
}

func (r *recordingObserver) BeforeLock(m *Mutex, gid uint64, site string) {
	r.before.Add(1)
	r.lastSite.Store(site)
}
func (r *recordingObserver) AfterLock(m *Mutex, gid uint64, site string)    { r.after.Add(1) }
func (r *recordingObserver) BeforeUnlock(m *Mutex, gid uint64, site string) { r.unlock.Add(1) }

func TestObserverEvents(t *testing.T) {
	m := NewMutex("obs")
	var r recordingObserver
	m.Observe(&r)
	m.Lock()
	m.Unlock()
	m.With(func() {})
	if r.before.Load() != 2 || r.after.Load() != 2 || r.unlock.Load() != 2 {
		t.Fatalf("observer counts = %d/%d/%d, want 2/2/2",
			r.before.Load(), r.after.Load(), r.unlock.Load())
	}
	m.WithAt("file.go:10", func() {})
	if got := r.lastSite.Load().(string); got != "file.go:10" {
		t.Fatalf("site = %q, want file.go:10", got)
	}
}

func TestOwnerTracking(t *testing.T) {
	m := NewMutex("own")
	if gid, _ := m.Owner(); gid != 0 {
		t.Fatal("free mutex has an owner")
	}
	m.LockAt("here:1")
	gid, site := m.Owner()
	if gid != GoroutineID() || site != "here:1" {
		t.Fatalf("Owner = %d %q", gid, site)
	}
	m.Unlock()
	if gid, _ := m.Owner(); gid != 0 {
		t.Fatal("owner not cleared on unlock")
	}
}

func TestMutexString(t *testing.T) {
	if s := NewMutex("plain").String(); s != "Mutex(plain)" {
		t.Errorf("String = %q", s)
	}
	if s := NewClassMutex("m", NewClass("C")).String(); s != "Mutex(C:m)" {
		t.Errorf("String = %q", s)
	}
}

func TestGoroutineIDDistinct(t *testing.T) {
	mine := GoroutineID()
	if mine == 0 {
		t.Fatal("GoroutineID returned 0")
	}
	ch := make(chan uint64)
	go func() { ch <- GoroutineID() }()
	if other := <-ch; other == mine {
		t.Fatal("distinct goroutines share an id")
	}
}

func TestHeldByOtherGoroutine(t *testing.T) {
	m := NewMutex("hb")
	gidCh := make(chan uint64)
	release := make(chan struct{})
	go func() {
		m.Lock()
		gidCh <- GoroutineID()
		<-release
		m.Unlock()
		gidCh <- 0
	}()
	gid := <-gidCh
	held := HeldBy(gid)
	if len(held) != 1 || held[0] != m {
		t.Fatalf("HeldBy(%d) = %v, want [m]", gid, held)
	}
	close(release)
	<-gidCh
	if len(HeldBy(gid)) != 0 {
		t.Fatal("held set not cleared after goroutine unlocked")
	}
}

func TestCondNotifyWakesWaiter(t *testing.T) {
	m := NewMutex("cm")
	c := NewCond("cv", m)
	woke := make(chan struct{})
	go func() {
		m.Lock()
		c.Wait()
		m.Unlock()
		close(woke)
	}()
	// Wait for the waiter to register.
	for c.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	m.Lock()
	c.Notify()
	m.Unlock()
	select {
	case <-woke:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke")
	}
	if c.Delivered() != 1 || c.Missed() != 0 {
		t.Fatalf("delivered=%d missed=%d", c.Delivered(), c.Missed())
	}
}

func TestCondNotifyWithNoWaiterIsLost(t *testing.T) {
	m := NewMutex("cm2")
	c := NewCond("cv2", m)
	m.Lock()
	c.Notify()
	m.Unlock()
	if c.Missed() != 1 {
		t.Fatalf("Missed = %d, want 1 (lost notification)", c.Missed())
	}
	// A subsequent wait must NOT be satisfied by the lost notification.
	m.Lock()
	ok := c.WaitTimeout(20 * time.Millisecond)
	m.Unlock()
	if ok {
		t.Fatal("wait satisfied by a notification sent before waiting began")
	}
}

func TestCondWaitTimeoutReacquiresLock(t *testing.T) {
	m := NewMutex("cm3")
	c := NewCond("cv3", m)
	m.Lock()
	if c.WaitTimeout(10 * time.Millisecond) {
		t.Fatal("timeout wait reported success")
	}
	if !IsHeld(m) {
		t.Fatal("lock not re-acquired after timed-out wait")
	}
	m.Unlock()
	if c.Waiters() != 0 {
		t.Fatal("timed-out waiter left registered")
	}
}

func TestCondNotifyAll(t *testing.T) {
	m := NewMutex("cm4")
	c := NewCond("cv4", m)
	const n = 5
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Lock()
			c.Wait()
			m.Unlock()
		}()
	}
	for c.Waiters() < n {
		time.Sleep(time.Millisecond)
	}
	m.Lock()
	c.NotifyAll()
	m.Unlock()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("NotifyAll did not wake all waiters")
	}
	if c.Delivered() != n {
		t.Fatalf("Delivered = %d, want %d", c.Delivered(), n)
	}
}

func TestCondOneNotifyWakesExactlyOne(t *testing.T) {
	m := NewMutex("cm5")
	c := NewCond("cv5", m)
	var woke atomic.Int32
	for i := 0; i < 3; i++ {
		go func() {
			m.Lock()
			if c.WaitTimeout(300 * time.Millisecond) {
				woke.Add(1)
			}
			m.Unlock()
		}()
	}
	for c.Waiters() < 3 {
		time.Sleep(time.Millisecond)
	}
	m.Lock()
	c.Notify()
	m.Unlock()
	time.Sleep(400 * time.Millisecond)
	if woke.Load() != 1 {
		t.Fatalf("woke = %d, want exactly 1", woke.Load())
	}
}

func TestCondStressManyWaitersAndNotifiers(t *testing.T) {
	m := NewMutex("stress-mon")
	c := NewCond("stress-cv", m)
	const waiters = 16
	var woke atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Lock()
			if c.WaitTimeout(5 * time.Second) {
				woke.Add(1)
			}
			m.Unlock()
		}()
	}
	for c.Waiters() < waiters {
		time.Sleep(time.Millisecond)
	}
	// Wake them with a mixture of Notify and NotifyAll from concurrent
	// notifiers.
	var nwg sync.WaitGroup
	for i := 0; i < 4; i++ {
		nwg.Add(1)
		go func() {
			defer nwg.Done()
			for j := 0; j < waiters/4; j++ {
				m.Lock()
				c.Notify()
				m.Unlock()
			}
		}()
	}
	nwg.Wait()
	// Whatever was left gets a broadcast.
	m.Lock()
	c.NotifyAll()
	m.Unlock()
	wg.Wait()
	if woke.Load() != waiters {
		t.Fatalf("woke %d/%d waiters", woke.Load(), waiters)
	}
	if c.Delivered() < waiters {
		t.Fatalf("delivered = %d", c.Delivered())
	}
}

var gidSink uint64

// BenchmarkGoroutineID backs the measured-cost claim in GoroutineID's
// comment; run with -benchmem to see the pooled buffer keeping it at 0
// allocs.
func BenchmarkGoroutineID(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gidSink = GoroutineID()
	}
}
