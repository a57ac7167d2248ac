// Package hedc models "hedc", the ETH web-crawler/meta-search benchmark
// of the paper's evaluation (Table 1 rows "hedc": race1, race2). The
// paper's hedc fetches pages over the network; here the web is an
// in-memory page graph with simulated fetch latency, which preserves the
// property that matters for breakpoints: the racing operations arrive at
// random, jittered times, so a short pause sometimes misses the
// rendezvous (probability 0.87 at 100ms in the paper) while a long pause
// almost never does (1.0 at 1s) — the section 6.2 sweep.
//
//   - race1: the completed-task counter is updated read-modify-write
//     without synchronization; a lost update makes the crawler's final
//     count disagree with the number of pages crawled.
//   - race2: result publication uses a racy slot-index counter; two
//     workers can claim the same slot and one result is lost.
package hedc

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
	BPRace1 = "hedc.race1"
	BPRace2 = "hedc.race2"
)

// Page is one document in the synthetic web.
type Page struct {
	URL   string
	Links []string
	Size  int
}

// Web is an immutable in-memory page graph.
type Web struct {
	pages map[string]*Page
}

// BuildWeb generates a deterministic page tree with the given fanout and
// depth rooted at "http://root".
func BuildWeb(fanout, depth int) *Web {
	w := &Web{pages: make(map[string]*Page)}
	var build func(url string, d int)
	build = func(url string, d int) {
		p := &Page{URL: url, Size: 100 + len(url)*7}
		if d < depth {
			for i := 0; i < fanout; i++ {
				child := fmt.Sprintf("%s/%d", url, i)
				p.Links = append(p.Links, child)
			}
		}
		w.pages[url] = p
		for _, l := range p.Links {
			build(l, d+1)
		}
	}
	build("http://root", 0)
	return w
}

// Len returns the number of pages.
func (w *Web) Len() int { return len(w.pages) }

// Fetch simulates a network fetch: a deterministic-pseudo-random latency
// followed by the page lookup.
func (w *Web) Fetch(url string, jitter time.Duration) (*Page, bool) {
	if jitter > 0 {
		// Hash the URL into a latency in [jitter/2, jitter).
		h := uint64(14695981039346656037)
		for i := 0; i < len(url); i++ {
			h = (h ^ uint64(url[i])) * 1099511628211
		}
		d := jitter/2 + time.Duration(h%uint64(jitter/2))
		time.Sleep(d)
	}
	p, ok := w.pages[url]
	return p, ok
}

// Bug selects which race a run exercises.
type Bug int

// The hedc bugs of Table 1.
const (
	Race1 Bug = iota
	Race2
)

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Bug        Bug
	Breakpoint bool
	// Timeout is the breakpoint pause (the section 6.2 knob).
	Timeout time.Duration
	// Jitter is the simulated per-fetch latency scale (default 2ms).
	Jitter time.Duration
}

// webFanout and webDepth shape the synthetic web (40 pages); numWorkers
// is the crawler pool size.
const (
	webFanout  = 3
	webDepth   = 3
	numWorkers = 2
)

func (c *Config) jitter() time.Duration {
	if c.Jitter <= 0 {
		return 2 * time.Millisecond
	}
	return c.Jitter
}

func bpName(b Bug) string {
	if b == Race1 {
		return BPRace1
	}
	return BPRace2
}

// Crawler crawls the web from the root with a worker pool, maintaining a
// locked visited set (correct) and racy statistics (the seeded bugs).
type Crawler struct {
	web     *Web
	cfg     *Config
	visited map[string]bool
	visMu   *locks.Mutex
	queue   chan string
	pending sync.WaitGroup

	completed *memory.Cell // race1: racy task counter
	slotIdx   *memory.Cell // race2: racy result slot index
	results   []*Page      // race2: slot per crawled page
	resMu     *locks.Mutex // guards the slot write itself (the bug is
	// the racy index, not the store; the lock keeps the Go program
	// well-defined while the duplicate-slot overwrite still loses a
	// result)
}

// NewCrawler builds a crawler over web.
func NewCrawler(web *Web, cfg *Config) *Crawler {
	sp := memory.NewSpace()
	return &Crawler{
		web:       web,
		cfg:       cfg,
		visited:   make(map[string]bool),
		visMu:     locks.NewMutex("hedc.visited"),
		resMu:     locks.NewMutex("hedc.results"),
		queue:     make(chan string, web.Len()+16),
		completed: memory.NewCell(sp, "hedc.completed", 0),
		slotIdx:   memory.NewCell(sp, "hedc.slotIdx", 0),
		results:   make([]*Page, web.Len()+16),
	}
}

// enqueue adds url if not yet visited (correctly locked).
func (c *Crawler) enqueue(url string) {
	var fresh bool
	c.visMu.With(func() {
		if !c.visited[url] {
			c.visited[url] = true
			fresh = true
		}
	})
	if fresh {
		c.pending.Add(1)
		c.queue <- url
	}
}

// work processes queue items until the queue closes, keeping a local
// task count that is merged into the shared total at the end.
func (c *Crawler) work(worker int) {
	local := int64(0)
	for url := range c.queue {
		page, ok := c.web.Fetch(url, c.cfg.jitter())
		if ok {
			for _, l := range page.Links {
				c.enqueue(l)
			}
			c.publish(page, worker)
			local++
		}
		c.pending.Done()
	}
	// Post-processing (result de-duplication, stats) takes a random,
	// worker-dependent time, so the final merges arrive skewed by up to
	// the fetch-jitter scale.
	skew := appkit.JitterDuration(c.cfg.jitter())
	time.Sleep(skew)
	c.mergeCount(worker, local)
}

// mergeCount is the race1 site: each worker merges its local count into
// the shared total with an unsynchronized read-modify-write, once, at
// the end of its crawl. The two merges arrive skewed by the crawl's
// fetch jitter, so a short breakpoint pause misses the rendezvous
// sometimes while a long one essentially never does — the section 6.2
// behaviour the paper reports for hedc.
func (c *Crawler) mergeCount(worker int, local int64) {
	v := c.completed.Load("hedc.go:merge.read")
	if c.cfg.Breakpoint && c.cfg.Bug == Race1 {
		c.cfg.Engine.TriggerHere(core.NewConflictTrigger(BPRace1, c.completed), worker == 0,
			core.Options{Timeout: c.cfg.Timeout, Bound: 1})
	}
	c.completed.Store("hedc.go:merge.write", v+local)
}

// publish is the race2 site: claim a result slot with a racy index
// counter, then store the page there.
func (c *Crawler) publish(page *Page, worker int) {
	idx := c.slotIdx.Load("hedc.go:publish.read")
	if c.cfg.Breakpoint && c.cfg.Bug == Race2 {
		c.cfg.Engine.TriggerHere(core.NewConflictTrigger(BPRace2, c.slotIdx), worker == 0,
			core.Options{Timeout: c.cfg.Timeout, Bound: 1})
	}
	c.slotIdx.Store("hedc.go:publish.write", idx+1)
	c.resMu.Lock()
	c.results[idx] = page
	c.resMu.Unlock()
}

// Crawl runs the crawl to completion (including the workers' final
// count merges) and returns the number of pages whose results were
// successfully published.
func (c *Crawler) Crawl() int {
	var workers sync.WaitGroup
	for w := 0; w < numWorkers; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			c.work(w)
		}(w)
	}
	c.enqueue("http://root")
	c.pending.Wait()
	close(c.queue)
	workers.Wait()
	n := 0
	for _, r := range c.results {
		if r != nil {
			n++
		}
	}
	return n
}

// Completed returns the racy counter's final value.
func (c *Crawler) Completed() int64 { return c.completed.Load("check") }

// Run crawls the synthetic web and validates the statistics; a lost
// update in the selected counter is the manifested race.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	web := BuildWeb(webFanout, webDepth)
	res := appkit.RunWithDeadline(120*time.Second, func() appkit.Result {
		crawler := NewCrawler(web, &cfg)
		published := crawler.Crawl()
		total := web.Len()
		if cfg.Bug == Race1 && crawler.Completed() != int64(total) {
			return appkit.Result{Status: appkit.TestFail,
				Detail: fmt.Sprintf("completed counter lost updates: %d/%d", crawler.Completed(), total)}
		}
		if cfg.Bug == Race2 && published != total {
			return appkit.Result{Status: appkit.TestFail,
				Detail: fmt.Sprintf("results lost: %d/%d", published, total)}
		}
		return appkit.Result{Status: appkit.OK}
	})
	res.BPHit = cfg.Engine.Stats(bpName(cfg.Bug)).Hits() > 0
	return res
}
