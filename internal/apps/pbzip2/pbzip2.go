// Package pbzip2 models pbzip2 0.9.4, the parallel block compressor of
// the paper's Table 2, including its crash bug: when the main thread
// decides all blocks are finished it frees the shared FIFO queue, but a
// consumer thread can still be between "counted my last block" and "loop
// around and touch the queue again" — the consumer then dereferences the
// freed (here: nil) queue and the program crashes.
//
// The compressor is real: input is split into blocks, worker goroutines
// DEFLATE each block (compress/flate), and an order-restoring writer
// reassembles the output so it decompresses to the original input.
//
// Two concurrent breakpoints reproduce the crash deterministically
// (Table 2 reports 2 CBRs for pbzip2):
//
//	cbr1 aligns the main thread's "all blocks done" check with the
//	     consumer's final block-count increment, and
//	cbr2 orders the queue free before the consumer's loop-around load.
package pbzip2

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
	"cbreak/internal/memory"
)

// Breakpoint names for engine statistics.
const (
	BPAlign = "pbzip2.cbr1" // completion-check vs final-increment
	BPFree  = "pbzip2.cbr2" // queue free vs loop-around load
)

// Block is one unit of compression work.
type Block struct {
	Index int
	Data  []byte
}

// Queue is the shared FIFO between the producer and the consumers.
type Queue struct {
	mu    *locks.Mutex
	items []Block
	done  bool
}

// NewQueue returns an empty queue.
func NewQueue() *Queue { return &Queue{mu: locks.NewMutex("pbzip2.fifo")} }

// Push appends a block.
func (q *Queue) Push(b Block) {
	q.mu.With(func() { q.items = append(q.items, b) })
}

// Pop removes the oldest block; ok is false when the queue is empty.
func (q *Queue) Pop() (b Block, ok bool) {
	q.mu.With(func() {
		if len(q.items) > 0 {
			b = q.items[0]
			q.items = q.items[1:]
			ok = true
		}
	})
	return b, ok
}

// Close marks the producer finished.
func (q *Queue) Close() {
	q.mu.With(func() { q.done = true })
}

// Done reports whether the producer finished and the queue drained.
func (q *Queue) Done() bool {
	var d bool
	q.mu.With(func() { d = q.done && len(q.items) == 0 })
	return d
}

// CompressBlock DEFLATEs one block.
func CompressBlock(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecompressBlock inflates one block (used by tests to validate the
// pipeline).
func DecompressBlock(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	return io.ReadAll(r)
}

// SplitBlocks cuts the input into blockSize chunks.
func SplitBlocks(input []byte, blockSize int) []Block {
	var blocks []Block
	for i := 0; len(input) > 0; i++ {
		n := blockSize
		if n > len(input) {
			n = len(input)
		}
		blocks = append(blocks, Block{Index: i, Data: input[:n]})
		input = input[n:]
	}
	return blocks
}

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Breakpoint bool
	Timeout    time.Duration
	// InputSize is the uncompressed payload size (default 64 KiB).
	InputSize int
	// BlockSize is the compression block size (default 8 KiB).
	BlockSize int
}

// numWorkers is the consumer count.
const numWorkers = 2

func (c *Config) inputSize() int {
	if c.InputSize <= 0 {
		return 64 << 10
	}
	return c.InputSize
}

func (c *Config) blockSize() int {
	if c.BlockSize <= 0 {
		return 8 << 10
	}
	return c.BlockSize
}

// makeInput generates a deterministic compressible payload.
func makeInput(n int) []byte {
	out := make([]byte, n)
	seed := uint64(7)
	for i := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[i] = byte("abcdefgh"[seed%8])
	}
	return out
}

// Compressor is one run's pipeline state.
type Compressor struct {
	fifo      *memory.Ref[Queue] // the shared queue pointer the bug frees
	outMu     *locks.Mutex
	out       map[int][]byte
	completed *memory.Cell // blocks compressed so far
	total     int
	cfg       *Config
}

// NewCompressor builds the pipeline over the given blocks.
func NewCompressor(total int, cfg *Config) *Compressor {
	q := NewQueue()
	return &Compressor{
		fifo:      memory.NewRef(nil, "pbzip2.fifo", q),
		outMu:     locks.NewMutex("pbzip2.out"),
		out:       make(map[int][]byte),
		completed: memory.NewCell(nil, "pbzip2.completed", 0),
		total:     total,
		cfg:       cfg,
	}
}

// consumer drains the queue, compressing blocks. The loop-around load of
// the fifo pointer has no nil check — the crash site.
func (c *Compressor) consumer(id int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("worker %d crashed: %v", id, p)
		}
	}()
	// Resolve the handle once; the trigger site below runs per loop
	// iteration and skips the registry lookup.
	var bpFree *core.Breakpoint
	if c.cfg.Breakpoint {
		bpFree = c.cfg.Engine.Breakpoint(BPFree)
	}
	for {
		if c.cfg.Breakpoint {
			// cbr2 second side: the loop-around load can be ordered
			// after the main thread's free.
			bpFree.Trigger(core.NewConflictTrigger(BPFree, c.fifo), false,
				core.Options{Timeout: c.cfg.Timeout, Bound: 1,
					ExtraLocal: func() bool {
						return c.completed.Load("pbzip2:extra") >= int64(c.total)
					}})
		}
		q := c.fifo.Load("pbzip2:loop.load")
		// BUG: no nil check — after the main thread frees the queue this
		// dereference crashes (modeled as an explicit nil-deref panic,
		// matching the paper's "null pointer dereference").
		block, ok := q.Pop()
		if !ok {
			if q.Done() {
				return nil
			}
			time.Sleep(50 * time.Microsecond)
			continue
		}
		compressed, cerr := CompressBlock(block.Data)
		if cerr != nil {
			return cerr
		}
		c.outMu.Lock()
		c.out[block.Index] = compressed
		c.outMu.Unlock()
		c.countBlock(id)
	}
}

// countBlock is the consumer's final-block bookkeeping; cbr1's
// first-action side aligns the main thread's completion check right
// after the increment that completes the count.
func (c *Compressor) countBlock(id int) {
	n := c.completed.AtomicAdd("pbzip2:counted", 1)
	if c.cfg.Breakpoint && n == int64(c.total) {
		c.cfg.Engine.TriggerHere(core.NewConflictTrigger(BPAlign, c.completed), true,
			core.Options{Timeout: c.cfg.Timeout, Bound: 1})
	}
}

// Run compresses a synthetic input through the worker pipeline. When the
// breakpoints align the teardown race, a worker dereferences the freed
// queue and the run reports a crash; otherwise the output is validated
// by decompression.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	input := makeInput(cfg.inputSize())
	blocks := SplitBlocks(input, cfg.blockSize())
	comp := NewCompressor(len(blocks), &cfg)

	res := appkit.RunWithDeadline(60*time.Second, func() appkit.Result {
		errCh := make(chan error, numWorkers)
		q := comp.fifo.Load("pbzip2:setup")
		for _, b := range blocks {
			q.Push(b)
		}
		for w := 0; w < numWorkers; w++ {
			go func(w int) { errCh <- comp.consumer(w) }(w)
		}

		// Main thread: wait for the block count, then tear down. cbr1's
		// second side aligns this check with the final increment; cbr2's
		// first side orders the free before a consumer's loop-around.
		for comp.completed.Load("pbzip2:main.check") < int64(comp.total) {
			time.Sleep(100 * time.Microsecond)
		}
		if cfg.Breakpoint {
			cfg.Engine.TriggerHere(core.NewConflictTrigger(BPAlign, comp.completed), false,
				core.Options{Timeout: cfg.Timeout, Bound: 1})
			cfg.Engine.TriggerHereAnd(core.NewConflictTrigger(BPFree, comp.fifo), true,
				core.Options{Timeout: cfg.Timeout, Bound: 1},
				func() { comp.fifo.Store("pbzip2:free", nil) })
		} else {
			q.Close()
			// The natural grace between shutdown and free: the crash
			// window only opens if a consumer is still looping past it.
			// A consumer's 50 µs empty-queue sleep rounds up to the
			// runtime's ~1 ms timer tick, so the grace must outlast
			// that tick or the free and the poll often wake together.
			time.Sleep(5 * time.Millisecond)
			comp.fifo.Store("pbzip2:free", nil)
		}

		var firstErr error
		for w := 0; w < numWorkers; w++ {
			if err := <-errCh; err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return appkit.Result{Status: appkit.Crash, Detail: firstErr.Error()}
		}
		// Validate the pipeline end to end.
		var rebuilt bytes.Buffer
		for i := 0; i < comp.total; i++ {
			comp.outMu.Lock()
			blk := comp.out[i]
			comp.outMu.Unlock()
			plain, err := DecompressBlock(blk)
			if err != nil {
				return appkit.Result{Status: appkit.TestFail, Detail: "corrupt block " + err.Error()}
			}
			rebuilt.Write(plain)
		}
		if !bytes.Equal(rebuilt.Bytes(), input) {
			return appkit.Result{Status: appkit.TestFail, Detail: "round-trip mismatch"}
		}
		return appkit.Result{Status: appkit.OK}
	})
	res.BPHit = cfg.Engine.Stats(BPFree).Hits() > 0 || cfg.Engine.Stats(BPAlign).Hits() > 0
	return res
}
