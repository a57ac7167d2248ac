// Package locks provides identity-bearing synchronization primitives that
// track, per goroutine, the set of currently held locks. The tracking
// feeds three consumers:
//
//   - breakpoint predicate refinements such as "only trigger when a lock
//     of class BasicCaret is held" (section 6.3 of the paper),
//   - the conflict detectors in internal/detect, which need lock-set and
//     lock-contention information (Methodology II, section 5), and
//   - the wait-graph supervisor in internal/waitgraph, which is handed
//     every lock cycle as the wait that closes it begins (CycleWatch),
//     and asks which goroutines a postponed goroutine's held locks
//     block (BlockedBy).
//
// A Mutex here is a plain sync.Mutex plus a name, an optional class, and
// bookkeeping. The bookkeeping uses the goroutine id, so application code
// does not have to thread context values through every call.
package locks

import (
	"fmt"
	"runtime"
	"sync"
)

// Class groups locks for class-based predicates (the paper's
// isLockTypeHeld(type)). Compare classes by pointer identity.
type Class struct {
	// Name is a human-readable label, e.g. "BasicCaret".
	Name string
}

// NewClass returns a new lock class with the given name.
func NewClass(name string) *Class { return &Class{Name: name} }

// waitRec records one goroutine's current blocking acquisition: the
// lock and the source-site label of the acquisition. It is the raw
// material of a wait-for graph edge.
type waitRec struct {
	m    *Mutex
	site string
}

// holder records which goroutine holds a lock and the site label of
// its acquisition.
type holder struct {
	gid  uint64
	site string
}

// registry is the one record of lock ownership: which goroutine holds
// each lock, which locks each goroutine holds, and which lock each
// goroutine is blocked on. One mutex guards all three, so every reader
// sees them agree, and the wait that closes a lock cycle sees the whole
// cycle (waitedges.go).
type registry struct {
	mu      sync.Mutex
	held    map[uint64][]*Mutex // goroutine id -> stack of held locks
	owners  map[*Mutex]holder   // held lock -> its holder
	waiting map[uint64]waitRec  // goroutine id -> lock it is blocked on
	watches []*CycleWatch       // receivers of the cycles that close
}

var reg = &registry{
	held:    make(map[uint64][]*Mutex),
	owners:  make(map[*Mutex]holder),
	waiting: make(map[uint64]waitRec),
}

// Mutex is a named, class-tagged mutual-exclusion lock with held-set
// tracking. The zero value is not usable; create with NewMutex.
type Mutex struct {
	mu    sync.Mutex
	name  string
	class *Class

	// observers are invoked on every Lock/Unlock transition; the
	// detectors register themselves here.
	obsMu     sync.Mutex
	observers []Observer
}

// Observer receives lock transition events. BeforeLock fires before the
// goroutine blocks on acquisition (this is where contention and
// deadlock-cycle detection hook in); AfterLock and BeforeUnlock fire with
// the lock held. site is the source label passed to LockAt/UnlockAt, or
// "" for the untagged variants.
type Observer interface {
	BeforeLock(m *Mutex, gid uint64, site string)
	AfterLock(m *Mutex, gid uint64, site string)
	BeforeUnlock(m *Mutex, gid uint64, site string)
}

// NewMutex returns a named mutex with no class.
func NewMutex(name string) *Mutex { return &Mutex{name: name} }

// NewClassMutex returns a named mutex tagged with a class.
func NewClassMutex(name string, class *Class) *Mutex {
	return &Mutex{name: name, class: class}
}

// Name returns the mutex's name.
func (m *Mutex) Name() string { return m.name }

// Class returns the mutex's class, or nil.
func (m *Mutex) Class() *Class { return m.class }

// Observe registers an observer for this mutex's transitions.
func (m *Mutex) Observe(o Observer) {
	m.obsMu.Lock()
	m.observers = append(m.observers, o)
	m.obsMu.Unlock()
}

func (m *Mutex) snapshot() []Observer {
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	if len(m.observers) == 0 {
		return nil
	}
	out := make([]Observer, len(m.observers))
	copy(out, m.observers)
	return out
}

// Lock acquires the mutex, recording it in the goroutine's held set.
func (m *Mutex) Lock() { m.LockAt("") }

// LockAt is Lock tagged with a source-site label, which detectors use in
// contention and deadlock reports (the paper's "line 623"-style sites).
func (m *Mutex) LockAt(site string) {
	gid := GoroutineID()
	for _, o := range m.snapshot() {
		o.BeforeLock(m, gid, site)
	}
	reg.wait(gid, m, site)
	m.mu.Lock()
	reg.acquired(gid, m, site)
	for _, o := range m.snapshot() {
		o.AfterLock(m, gid, site)
	}
}

// TryLock tries to acquire the mutex without blocking and reports whether
// it succeeded.
func (m *Mutex) TryLock() bool {
	gid := GoroutineID()
	if !m.mu.TryLock() {
		return false
	}
	reg.acquired(gid, m, "")
	for _, o := range m.snapshot() {
		o.AfterLock(m, gid, "")
	}
	return true
}

// Unlock releases the mutex and removes it from its owner's held set.
// Like sync.Mutex, unlocking from a goroutine other than the locker is a
// programming error; the entry then still leaves the locker's set, not
// the unlocking goroutine's.
func (m *Mutex) Unlock() { m.UnlockAt("") }

// UnlockAt is Unlock tagged with a source-site label.
func (m *Mutex) UnlockAt(site string) {
	gid := GoroutineID()
	for _, o := range m.snapshot() {
		o.BeforeUnlock(m, gid, site)
	}
	reg.released(m)
	m.mu.Unlock()
}

// With runs f while holding the mutex; it is the analog of a Java
// synchronized block.
func (m *Mutex) With(f func()) { m.WithAt("", f) }

// WithAt is With tagged with a source-site label.
func (m *Mutex) WithAt(site string, f func()) {
	m.LockAt(site)
	defer m.UnlockAt(site)
	f()
}

// Owner returns the gid currently holding the lock (0 if free) and the
// site label of the owning acquisition.
func (m *Mutex) Owner() (uint64, string) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	h := reg.owners[m]
	return h.gid, h.site
}

// acquired records that gid now holds m, taken at site, and ends its
// wait for it. It runs after m.mu is locked, so a wait record always
// outlives the blocking acquisition it describes.
func (r *registry) acquired(gid uint64, m *Mutex, site string) {
	r.mu.Lock()
	delete(r.waiting, gid)
	r.owners[m] = holder{gid: gid, site: site}
	r.held[gid] = append(r.held[gid], m)
	r.mu.Unlock()
}

// released records that m's owner no longer holds it, whichever
// goroutine unlocks it. It runs before m.mu is unlocked, so an owner
// record never outlives the ownership.
func (r *registry) released(m *Mutex) {
	r.mu.Lock()
	defer r.mu.Unlock()
	gid := r.owners[m].gid
	delete(r.owners, m)
	s := r.held[gid]
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == m {
			s = append(s[:i], s[i+1:]...)
			break
		}
	}
	if len(s) == 0 {
		delete(r.held, gid)
	} else {
		r.held[gid] = s
	}
}

// Held returns the locks currently held by the calling goroutine, in
// acquisition order.
func Held() []*Mutex {
	gid := GoroutineID()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	s := reg.held[gid]
	out := make([]*Mutex, len(s))
	copy(out, s)
	return out
}

// HeldBy returns the locks currently held by the goroutine with id gid.
func HeldBy(gid uint64) []*Mutex {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	s := reg.held[gid]
	out := make([]*Mutex, len(s))
	copy(out, s)
	return out
}

// IsHeld reports whether the calling goroutine holds m.
func IsHeld(m *Mutex) bool {
	for _, h := range Held() {
		if h == m {
			return true
		}
	}
	return false
}

// IsClassHeld reports whether the calling goroutine holds any lock of the
// given class. It implements the paper's isLockTypeHeld(type) predicate
// refinement.
func IsClassHeld(c *Class) bool {
	for _, h := range Held() {
		if h.class == c {
			return true
		}
	}
	return false
}

// ClassHeldPred returns a closure suitable for core.Options.ExtraLocal
// that is true while the calling goroutine holds a lock of class c.
func ClassHeldPred(c *Class) func() bool {
	return func() bool { return IsClassHeld(c) }
}

// String implements fmt.Stringer for diagnostics.
func (m *Mutex) String() string {
	if m.class != nil {
		return fmt.Sprintf("Mutex(%s:%s)", m.class.Name, m.name)
	}
	return fmt.Sprintf("Mutex(%s)", m.name)
}

// gidBufs pools the stack-header buffers GoroutineID hands to
// runtime.Stack. The buffer escapes through the runtime call, so a
// plain local would heap-allocate 64 bytes per call; the pool amortizes
// that to zero steady-state allocations.
var gidBufs = sync.Pool{New: func() any { b := make([]byte, 64); return &b }}

// GoroutineID returns the calling goroutine's numeric id by parsing the
// first line of a stack trace ("goroutine 123 [running]:"). It is the
// tree's one parser: every Mutex Lock and Unlock keys its bookkeeping
// on it, memory tracers and the detectors key per-thread state on it,
// and the breakpoint engine uses it only to keep the two sides of a
// breakpoint distinct goroutines (the paper's t1 != t2), never for
// scheduling. Measured by BenchmarkGoroutineID at ~4.2µs and 0 allocs
// per call (2-vCPU Xeon VM, go1.24): runtime.Stack dominates, the parse
// is noise.
func GoroutineID() uint64 {
	bp := gidBufs.Get().(*[]byte)
	buf := *bp
	n := runtime.Stack(buf, false)
	// Parse "goroutine <digits> " in place; no string conversion, no
	// strconv, so the call allocates nothing.
	const prefix = "goroutine "
	var id uint64
	if n > len(prefix) {
		for _, c := range buf[len(prefix):n] {
			if c < '0' || c > '9' {
				break
			}
			id = id*10 + uint64(c-'0')
		}
	}
	gidBufs.Put(bp)
	return id
}
