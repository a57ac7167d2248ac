// Package lucene models the Lucene indexing library's commit/flush
// deadlock (Table 1 row "lucene / deadlock1"): IndexWriter.commit locks
// the writer and then the DocumentsWriter to flush buffered documents,
// while the document-add path flushes under the DocumentsWriter lock and
// then calls back into the writer — opposite acquisition orders.
//
// The index itself is a real (small) inverted index: documents are
// tokenized, postings accumulated per term, and a Search method answers
// term queries, so the deadlock sites sit on genuinely working code
// paths.
package lucene

import (
	"fmt"
	"strings"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
)

// BPDeadlock identifies the breakpoint in engine statistics.
const BPDeadlock = "lucene.deadlock1"

// Posting is one document occurrence of a term.
type Posting struct {
	DocID int
	Freq  int
}

// DocumentsWriter buffers documents and their postings until a flush
// merges them into the committed index.
type DocumentsWriter struct {
	mu       *locks.Mutex
	buffered map[string][]Posting
	pending  int
}

func newDocumentsWriter() *DocumentsWriter {
	return &DocumentsWriter{
		mu:       locks.NewMutex("lucene.docsWriter"),
		buffered: make(map[string][]Posting),
	}
}

// addLocked tokenizes and buffers a document; caller holds dw.mu.
func (dw *DocumentsWriter) addLocked(docID int, text string) {
	freqs := make(map[string]int)
	for _, tok := range strings.Fields(strings.ToLower(text)) {
		tok = strings.Trim(tok, ".,;:!?\"'()")
		if tok != "" {
			freqs[tok]++
		}
	}
	for term, f := range freqs {
		dw.buffered[term] = append(dw.buffered[term], Posting{DocID: docID, Freq: f})
	}
	dw.pending++
}

// drainLocked removes and returns the buffered postings; caller holds
// dw.mu.
func (dw *DocumentsWriter) drainLocked() map[string][]Posting {
	out := dw.buffered
	dw.buffered = make(map[string][]Posting)
	dw.pending = 0
	return out
}

// IndexWriter is the top-level index: committed postings plus a
// DocumentsWriter buffer.
type IndexWriter struct {
	mu        *locks.Mutex
	committed map[string][]Posting
	docs      *DocumentsWriter
	nextDoc   int
	flushEach int
	cfg       *Config
}

// NewIndexWriter returns an index writer that auto-flushes every
// flushEach documents.
func NewIndexWriter(flushEach int, cfg *Config) *IndexWriter {
	return &IndexWriter{
		mu:        locks.NewMutex("lucene.indexWriter"),
		committed: make(map[string][]Posting),
		docs:      newDocumentsWriter(),
		flushEach: flushEach,
		cfg:       cfg,
	}
}

// mergeLocked merges drained postings into the committed index; caller
// holds w.mu.
func (w *IndexWriter) mergeLocked(batch map[string][]Posting) {
	for term, ps := range batch {
		w.committed[term] = append(w.committed[term], ps...)
	}
}

// AddDocument buffers a document; when the buffer is full it flushes:
// DocumentsWriter monitor first, then the writer's — one side of the
// inversion.
func (w *IndexWriter) AddDocument(text string) int {
	w.docs.mu.LockAt("DocumentsWriter.java:add")
	id := w.nextDoc
	w.nextDoc++
	w.docs.addLocked(id, text)
	needFlush := w.docs.pending >= w.flushEach
	if !needFlush {
		w.docs.mu.Unlock()
		return id
	}
	if w.cfg != nil && w.cfg.Breakpoint {
		w.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock, w.docs.mu, w.mu), true,
			core.Options{Timeout: w.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: the Lucene deadlock repro (DocumentsWriter then IndexWriter)
	w.mu.LockAt("IndexWriter.java:doFlush")
	batch := w.docs.drainLocked()
	w.mergeLocked(batch)
	w.mu.Unlock()
	w.docs.mu.Unlock()
	return id
}

// Commit publishes all buffered documents: writer monitor first, then
// the DocumentsWriter's — the other side of the inversion.
func (w *IndexWriter) Commit() {
	w.mu.LockAt("IndexWriter.java:commit")
	defer w.mu.Unlock()
	if w.cfg != nil && w.cfg.Breakpoint {
		w.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock, w.mu, w.docs.mu), false,
			core.Options{Timeout: w.cfg.Timeout, Bound: 1})
	}
	//cbvet:ignore lockorder intentional: the Lucene deadlock repro (IndexWriter then DocumentsWriter)
	w.docs.mu.LockAt("DocumentsWriter.java:flushAll")
	batch := w.docs.drainLocked()
	w.docs.mu.Unlock()
	w.mergeLocked(batch)
}

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Breakpoint bool
	Timeout    time.Duration
	// StallAfter bounds deadlock detection (default 2s).
	StallAfter time.Duration
}

// numDocs is the number of documents indexed.
const numDocs = 40

func (c *Config) stallAfter() time.Duration {
	if c.StallAfter <= 0 {
		return 2 * time.Second
	}
	return c.StallAfter
}

// Run indexes documents on one goroutine while another commits; the
// crossed lock orders deadlock when the breakpoint aligns them.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	w := NewIndexWriter(4, &cfg)
	res := appkit.RunWithDeadline(cfg.stallAfter(), func() appkit.Result {
		done := make(chan struct{}, 2)
		go func() {
			for i := 0; i < numDocs; i++ {
				w.AddDocument(fmt.Sprintf("the quick brown fox %d jumps over the lazy dog", i))
			}
			done <- struct{}{}
		}()
		go func() {
			time.Sleep(200 * time.Microsecond)
			w.Commit()
			done <- struct{}{}
		}()
		<-done
		<-done
		return appkit.Result{Status: appkit.OK}
	})
	res.BPHit = cfg.Engine.Stats(BPDeadlock).Hits() > 0
	return res
}
