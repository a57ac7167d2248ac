// Package cache4j models cache4j, the thread-safe Java object cache of
// the paper's evaluation (Table 1 rows "cache4j": race1-3 and
// atomicity1). The cache itself — a capacity-bounded LRU map — is
// correctly synchronized; the seeded bugs are in its statistics and
// object-initialization paths, mirroring where the real races lived:
//
//   - race1: the hit counter is updated read-modify-write without
//     synchronization and races with the statistics reset, resurrecting
//     a stale count.
//   - race2: the evictor reads an entry's last-access time, decides to
//     evict, and races with a getter refreshing that time — evicting a
//     hot entry.
//   - race3: the size counter is maintained by racy increments and
//     decrements and drifts from the true map size.
//   - atomicity1: CacheObject construction publishes the object before
//     its expiry field is initialized; a concurrent getter observes the
//     half-built object and reports a spurious miss. The constructor
//     site is executed thousands of times during warm-up with no
//     concurrent reader, which is why the paper refines the breakpoint
//     with ignoreFirst=7200 (section 6.3) — reproduced here with the
//     IgnoreFirst option.
//
// Shared racy scalars go through memory.Cell (atomic inside, racy
// semantics preserved) as described in DESIGN.md.
package cache4j

import (
	"fmt"
	"sync"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
	"cbreak/internal/memory"
)

// Breakpoint names for engine statistics.
const (
	BPRace1     = "cache4j.race1"
	BPRace2     = "cache4j.race2"
	BPRace3     = "cache4j.race3"
	BPAtomicity = "cache4j.atomicity1"
)

// CacheObject is a cached entry. Expiry is set in a second
// initialization step after the object is published (the atomicity1
// bug); LastAccess is refreshed by getters and read by the evictor
// (race2).
type CacheObject struct {
	Key        string
	Value      int64
	Expiry     *memory.Cell // 0 until the second init step completes
	LastAccess *memory.Cell
}

// Cache is a capacity-bounded cache with LRU-ish eviction and (buggy)
// statistics counters.
type Cache struct {
	mu       *locks.Mutex
	entries  map[string]*CacheObject
	capacity int
	space    *memory.Space

	hits  *memory.Cell // racy (race1)
	size  *memory.Cell // racy (race3)
	clock *memory.Cell // logical time for LRU

	// evictedHot is set when the evictor removes an entry whose
	// LastAccess was refreshed after the eviction decision (race2
	// manifestation).
	evictedHot *memory.Cell

	cfg *Config
}

// NewCache returns a cache with the given capacity.
func NewCache(capacity int, cfg *Config) *Cache {
	sp := memory.NewSpace()
	return &Cache{
		mu:         locks.NewMutex("cache4j"),
		entries:    make(map[string]*CacheObject),
		capacity:   capacity,
		space:      sp,
		hits:       memory.NewCell(sp, "cache.hits", 0),
		size:       memory.NewCell(sp, "cache.size", 0),
		clock:      memory.NewCell(sp, "cache.clock", 0),
		evictedHot: memory.NewCell(sp, "cache.evictedHot", 0),
		cfg:        cfg,
	}
}

func (c *Cache) now() int64 { return c.clock.AtomicAdd("cache.go:now", 1) }

// Put inserts a new object. Construction is two-step: the object is
// published into the map with a zero Expiry and the expiry is stored
// afterwards — the atomicity1 window. The size counter is updated
// outside the map lock (the race3 bug).
func (c *Cache) Put(key string, value int64) *CacheObject {
	obj := &CacheObject{
		Key:        key,
		Value:      value,
		Expiry:     memory.NewCell(c.space, "obj.expiry."+key, 0),
		LastAccess: memory.NewCell(c.space, "obj.lastAccess."+key, c.now()),
	}
	var newKey bool
	c.mu.WithAt("cache.go:put", func() {
		_, exists := c.entries[key]
		newKey = !exists
		c.entries[key] = obj
	})
	if newKey {
		// race3: racy size increment, unsynchronized with the map.
		c.sizeAdd(1, "cache.go:put.size++")
	}
	// atomicity1 window: object visible, expiry not yet set. The
	// trigger carries the object, so only a reader of this same object
	// matches (the paper's t1.sb == t2.this predicate).
	if c.cfg.bug(Atomicity1) {
		c.cfg.handle().Trigger(core.NewAtomicityTrigger(BPAtomicity, obj), false,
			core.Options{Timeout: c.cfg.Timeout, IgnoreFirst: c.cfg.IgnoreFirst, Bound: 1})
	}
	obj.Expiry.Store("cache.go:put.expiry", c.now()+1_000_000)
	c.maybeEvict()
	return obj
}

// Get returns the object for key. A published-but-uninitialized object
// (zero expiry) is treated as expired — the spurious miss of atomicity1.
func (c *Cache) Get(key string) (*CacheObject, bool) {
	var obj *CacheObject
	c.mu.WithAt("cache.go:get", func() { obj = c.entries[key] })
	if obj == nil {
		return nil, false
	}
	readExpiry := func() bool {
		return obj.Expiry.Load("cache.go:get.expiry") > 0
	}
	ok := true
	if c.cfg.bug(Atomicity1) {
		// ExtraLocal keeps the reader from pausing on fully-initialized
		// objects: only a zero expiry (mid-construction) is a
		// breakpoint state. This is a precision refinement in the
		// sense of section 6.3 — it shrinks M without changing m.
		c.cfg.handle().TriggerAnd(core.NewAtomicityTrigger(BPAtomicity, obj), true,
			core.Options{
				Timeout:    c.cfg.Timeout,
				Bound:      1,
				ExtraLocal: func() bool { return obj.Expiry.Load("cache.go:get.peek") == 0 },
			}, func() { ok = readExpiry() })
	} else {
		ok = readExpiry()
	}
	if !ok {
		return nil, false // spurious miss: object looked expired mid-init
	}
	//cbvet:ignore conflicts intentional cache4j race: the lock-free touch vs the locked reaper IS the reproduced bug
	obj.LastAccess.Store("cache.go:get.touch", c.now())
	c.recordHit()
	return obj, true
}

// recordHit is the race1 site: a read-modify-write hit-count update with
// a breakpoint window between the read and the write. The reader side's
// local predicate is refined (section 6.3) to pause only while a stats
// reset is actually pending, so request traffic outside that window
// costs nothing.
func (c *Cache) recordHit() {
	v := c.hits.Load("cache.go:get.hits.read")
	if c.cfg.bug(Race1) {
		opts := core.Options{Timeout: c.cfg.Timeout, Bound: 1}
		if p := c.cfg.race1Pending; p != nil {
			opts.ExtraLocal = func() bool { return p.Load("cache.go:pending") != 0 }
		}
		c.cfg.handle().Trigger(core.NewConflictTrigger(BPRace1, c.hits), false, opts)
	}
	c.hits.Store("cache.go:get.hits.write", v+1)
}

// ResetStats zeroes the hit counter (the other side of race1).
func (c *Cache) ResetStats() {
	reset := func() { c.hits.Store("cache.go:resetStats", 0) }
	if c.cfg.bug(Race1) {
		c.cfg.handle().TriggerAnd(core.NewConflictTrigger(BPRace1, c.hits), true,
			core.Options{Timeout: c.cfg.Timeout, Bound: 1}, reset)
	} else {
		reset()
	}
}

// Hits returns the current hit count.
func (c *Cache) Hits() int64 { return c.hits.Load("cache.go:hits") }

// Remove deletes key (race3: racy size decrement outside the map lock).
func (c *Cache) Remove(key string) {
	var had bool
	c.mu.WithAt("cache.go:remove", func() {
		if _, ok := c.entries[key]; ok {
			delete(c.entries, key)
			had = true
		}
	})
	if had {
		c.sizeAdd(-1, "cache.go:remove.size--")
	}
}

// sizeAdd is the race3 site: a read-modify-write counter update. The
// increment (put) side skips its warm-up arrivals via IgnoreFirst.
func (c *Cache) sizeAdd(delta int64, site string) {
	// Both labels are built before the read, so the racy window holds
	// only the breakpoint.
	readSite, writeSite := site+".read", site+".write"
	v := c.size.Load(readSite)
	if c.cfg.bug(Race3) {
		first := delta < 0 // removals are the first-action side
		opts := core.Options{Timeout: c.cfg.Timeout, Bound: 1}
		if !first {
			opts.IgnoreFirst = c.cfg.IgnoreFirst
		}
		c.cfg.handle().Trigger(core.NewConflictTrigger(BPRace3, c.size), first, opts)
	}
	c.size.Store(writeSite, v+delta)
}

// Size returns the (possibly drifted) size counter.
func (c *Cache) Size() int64 { return c.size.Load("cache.go:size") }

// TrueSize returns the actual map size.
func (c *Cache) TrueSize() int {
	var n int
	c.mu.With(func() { n = len(c.entries) })
	return n
}

// maybeEvict removes the least recently used entry when over capacity.
// The decision (read of LastAccess) and the removal race with getters
// refreshing LastAccess — race2.
func (c *Cache) maybeEvict() {
	var victim *CacheObject
	c.mu.WithAt("cache.go:evict.scan", func() {
		if len(c.entries) <= c.capacity {
			return
		}
		var oldest int64 = 1 << 62
		for _, e := range c.entries {
			if t := e.LastAccess.Load("cache.go:evict.read"); t < oldest {
				oldest = t
				victim = e
			}
		}
	})
	if victim == nil {
		return
	}
	decidedAt := victim.LastAccess.Load("cache.go:evict.decide")
	if c.cfg.bug(Race2) {
		// Second-action side: the getter's refresh is ordered into the
		// window between the eviction decision and the removal. The
		// local predicate is refined (section 6.3) to the entry the
		// bug report names, so evictions of other entries don't pause.
		opts := core.Options{Timeout: c.cfg.Timeout, Bound: 1}
		if hot := c.cfg.race2Hot; hot != nil {
			opts.ExtraLocal = func() bool { return victim == hot }
		}
		c.cfg.handle().Trigger(core.NewConflictTrigger(BPRace2, victim.LastAccess), false, opts)
	}
	var removed, hot bool
	c.mu.WithAt("cache.go:evict.remove", func() {
		if _, ok := c.entries[victim.Key]; ok {
			delete(c.entries, victim.Key)
			removed = true
			hot = victim.LastAccess.Load("cache.go:evict.recheck") > decidedAt
		}
	})
	if removed {
		c.sizeAdd(-1, "cache.go:evict.size--")
		if hot {
			c.evictedHot.Store("cache.go:evict.hot", 1)
		}
	}
}

// touchForRace2 is the getter side of race2: refresh LastAccess between
// the evictor's decision and removal (the first-action side of the
// breakpoint, so the refresh lands inside the evictor's window).
func (c *Cache) touchForRace2(obj *CacheObject) {
	touch := func() { obj.LastAccess.Store("cache.go:get.touch2", c.now()) }
	if c.cfg.bug(Race2) {
		c.cfg.handle().TriggerAnd(core.NewConflictTrigger(BPRace2, obj.LastAccess), true,
			core.Options{Timeout: c.cfg.Timeout, Bound: 1}, touch)
	} else {
		touch()
	}
}

// Bug selects the seeded bug a run exercises.
type Bug int

// The cache4j bugs of Table 1.
const (
	Race1 Bug = iota
	Race2
	Race3
	Atomicity1
)

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Bug        Bug
	Breakpoint bool
	// Timeout is the breakpoint pause (zero = engine default).
	Timeout time.Duration
	// IgnoreFirst skips the first n constructor-side arrivals
	// (section 6.3; the paper uses 7200).
	IgnoreFirst int
	// WarmupObjects is how many objects the harness creates before
	// readers start (default 100); each warm-up Put passes the
	// atomicity1 trigger site with no partner.
	WarmupObjects int
	// Ops is the number of worker operations (default 400).
	Ops int

	// race2Hot is the entry the race2 breakpoint is refined to (set by
	// Run).
	race2Hot *CacheObject
	// race1Pending gates the reader side of race1 to the reset window
	// (set by Run).
	race1Pending *memory.Cell
	// bp is the run's breakpoint handle (each run exercises one bug, so
	// one handle covers every site), resolved once by Run.
	bp *core.Breakpoint
}

// handle returns the run's breakpoint handle. Configs built directly
// (tests driving Cache methods without Run) fall back to per-call
// resolution; the fallback deliberately does not cache, so concurrent
// callers never race on the field.
func (c *Config) handle() *core.Breakpoint {
	if bp := c.bp; bp != nil {
		return bp
	}
	return c.Engine.Breakpoint(bpName(c.Bug))
}

func (c *Config) bug(b Bug) bool {
	return c != nil && c.Breakpoint && c.Bug == b && c.Engine != nil
}

func (c *Config) warmup() int {
	if c.WarmupObjects <= 0 {
		return 100
	}
	return c.WarmupObjects
}

func (c *Config) ops() int {
	if c.Ops <= 0 {
		return 400
	}
	return c.Ops
}

func bpName(b Bug) string {
	switch b {
	case Race1:
		return BPRace1
	case Race2:
		return BPRace2
	case Race3:
		return BPRace3
	default:
		return BPAtomicity
	}
}

// Run executes the test harness once: warm-up Puts, then concurrent
// workers exercising the path of the selected bug. The result reports
// whether the bug's observable effect manifested.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	cfg.bp = cfg.Engine.Breakpoint(bpName(cfg.Bug))
	cache := NewCache(1<<30, &cfg) // effectively unbounded unless race2
	warm := cfg.warmup()
	if cfg.Bug == Race3 && cfg.Breakpoint && cfg.IgnoreFirst == 0 {
		// Skip the warm-up puts on the increment side before they run.
		cfg.IgnoreFirst = warm
	}
	if cfg.Bug == Race2 {
		// Small capacity so the concurrent phase evicts; warm-up stays
		// within capacity to avoid partnerless evictor pauses.
		cache.capacity = 8
		warm = 8
	}

	res := appkit.RunWithDeadline(60*time.Second, func() appkit.Result {
		// Warm-up: fixed number of objects, no concurrency (the phase
		// that motivates ignoreFirst).
		for i := 0; i < warm; i++ {
			cache.Put(fmt.Sprintf("warm-%d", i), int64(i))
		}
		switch cfg.Bug {
		case Race1:
			return runRace1(cache, &cfg)
		case Race2:
			return runRace2(cache, &cfg)
		case Race3:
			return runRace3(cache, &cfg)
		default:
			return runAtomicity(cache, &cfg)
		}
	})
	res.BPHit = cfg.Engine.Stats(bpName(cfg.Bug)).Hits() > 0
	return res
}

// runRace1 resets the statistics once the reader's burst of traffic has
// ended, while the reader keeps issuing paced requests. The reset is
// armed by a handshake, not a sleep, so it always follows the burst
// whatever the machine's speed.
//
// The oracle counts requests: a reset that takes effect leaves only the
// paced requests made after it, at most ops/2, while a lost reset
// resurrects the burst's ops/2 hits through the reader's stale store
// and ends with all ops counted. Hits above ops/2 at the end are a lost
// reset.
func runRace1(cache *Cache, cfg *Config) appkit.Result {
	cfg.race1Pending = memory.NewCell(nil, "cache4j.resetPending", 0)
	burst := cfg.ops() / 2
	burstDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // reader: a burst of traffic, then a steady cadence
		defer wg.Done()
		for i := 0; i < burst; i++ {
			cache.Get("warm-1") // accumulates a realistic hit count fast
		}
		close(burstDone)
		for i := 0; i < cfg.ops()-burst; i++ {
			cache.Get("warm-1")
			time.Sleep(100 * time.Microsecond)
		}
	}()
	go func() { // stats reset after the burst
		defer wg.Done()
		<-burstDone
		cfg.race1Pending.Store("cache.go:reset.arm", 1)
		cache.ResetStats() // returns after the reset ran (post-match on a hit)
		cfg.race1Pending.Store("cache.go:reset.disarm", 0)
	}()
	wg.Wait()
	if got := cache.Hits(); got > int64(burst) {
		return appkit.Result{Status: appkit.TestFail,
			Detail: fmt.Sprintf("hit counter resurrected a stale value: %d hits, at most %d after the reset", got, burst)}
	}
	return appkit.Result{Status: appkit.OK}
}

func runRace2(cache *Cache, cfg *Config) appkit.Result {
	obj, ok := cache.Get("warm-1")
	if !ok {
		return appkit.Result{Status: appkit.TestFail, Detail: "warm object missing"}
	}
	cfg.race2Hot = obj
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // getter refreshing the hot entry on a slow cadence
		defer wg.Done()
		for i := 0; i < cfg.ops()/4; i++ {
			cache.touchForRace2(obj)
			time.Sleep(time.Millisecond)
			if cache.evictedHot.Load("cache.go:getter.check") > 0 {
				return
			}
		}
	}()
	go func() { // writer pushing the cache over capacity (evictions)
		defer wg.Done()
		for i := 0; i < cfg.ops(); i++ {
			cache.Put(fmt.Sprintf("new-%d", i), int64(i))
			if cache.evictedHot.Load("cache.go:writer.check") > 0 {
				return
			}
		}
	}()
	wg.Wait()
	if cache.evictedHot.Load("cache.go:check") > 0 {
		return appkit.Result{Status: appkit.TestFail, Detail: "hot entry evicted after refresh"}
	}
	return appkit.Result{Status: appkit.OK}
}

func runRace3(cache *Cache, cfg *Config) appkit.Result {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // adder of fresh keys
		defer wg.Done()
		for i := 0; i < cfg.ops(); i++ {
			cache.Put(fmt.Sprintf("k-%d", i), int64(i))
		}
	}()
	go func() { // remover of warm keys (guaranteed-present removals)
		defer wg.Done()
		for i := 0; i < cfg.warmup(); i++ {
			cache.Remove(fmt.Sprintf("warm-%d", i))
		}
	}()
	wg.Wait()
	if cache.Size() != int64(cache.TrueSize()) {
		return appkit.Result{
			Status: appkit.TestFail,
			Detail: fmt.Sprintf("size counter drift: counter=%d actual=%d", cache.Size(), cache.TrueSize()),
		}
	}
	return appkit.Result{Status: appkit.OK}
}

func runAtomicity(cache *Cache, cfg *Config) appkit.Result {
	miss := memory.NewCell(nil, "spuriousMiss", 0)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer creating fresh objects
		defer wg.Done()
		for i := 0; i < cfg.ops()/4; i++ {
			cache.Put(fmt.Sprintf("fresh-%d", i), int64(i))
		}
	}()
	go func() { // reader chasing the writer on a polling cadence
		defer wg.Done()
		keys := cfg.ops() / 4
		for i := 0; i < cfg.ops()*4; i++ {
			key := fmt.Sprintf("fresh-%d", i%keys)
			var present bool
			cache.mu.With(func() { _, present = cache.entries[key] })
			if !present {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			if _, ok := cache.Get(key); !ok {
				miss.Store("run", 1)
				return
			}
		}
	}()
	wg.Wait()
	if miss.Load("run") > 0 {
		return appkit.Result{Status: appkit.TestFail, Detail: "spurious miss on half-initialized object"}
	}
	return appkit.Result{Status: appkit.OK}
}
