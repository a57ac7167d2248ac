// Atomicity example: the paper's Figure 3 — the classic
// java.lang.StringBuffer append/setLength atomicity violation, made
// deterministic with a pair of atomicity triggers (NewAtomicityTrigger).
//
// append(sb) reads sb's length and then copies that many characters,
// acquiring sb's monitor separately for each call. A concurrent
// setLength(0) between the two calls makes the cached length stale and
// the copy panics — the analog of StringIndexOutOfBoundsException.
//
//	go run ./examples/atomicity
package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"cbreak"
)

// buffer is a tiny synchronized string buffer.
type buffer struct {
	mu   *cbreak.Mutex
	data []byte
}

func newBuffer(name, s string) *buffer {
	return &buffer{mu: cbreak.NewMutex(name), data: []byte(s)}
}

func (b *buffer) length() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.data)
}

func (b *buffer) getChars(end int, dst []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if end > len(b.data) {
		panic(fmt.Sprintf("StringIndexOutOfBounds: srcEnd=%d length=%d", end, len(b.data)))
	}
	copy(dst, b.data[:end])
}

func (b *buffer) setLength(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.data = b.data[:n]
}

// appendTo is Figure 3's append: length (line 444), breakpoint window,
// getChars (line 449).
func (dst *buffer) appendTo(sb *buffer) {
	n := sb.length() // line 444
	// Line 449 side of the breakpoint (239, 449, t1.sb == t2.this).
	cbreak.TriggerHere(cbreak.NewAtomicityTrigger("sb-atomicity", sb), false, 500*time.Millisecond)
	tmp := make([]byte, n)
	sb.getChars(n, tmp) // line 449
	dst.mu.Lock()
	dst.data = append(dst.data, tmp...)
	dst.mu.Unlock()
}

func runOnce() (panicked bool) {
	sb := newBuffer("sb", strings.Repeat("x", 32))
	dst := newBuffer("dst", "")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		dst.appendTo(sb)
	}()
	go func() {
		defer wg.Done()
		// Line 239 side: setLength runs first once the breakpoint hits.
		cbreak.TriggerHereAnd(cbreak.NewAtomicityTrigger("sb-atomicity", sb), true,
			cbreak.Options{Timeout: 500 * time.Millisecond},
			func() { sb.setLength(0) })
	}()
	wg.Wait()
	return panicked
}

func main() {
	cbreak.SetEnabled(true)
	const runs = 10
	exceptions := 0
	for i := 0; i < runs; i++ {
		cbreak.Reset()
		if runOnce() {
			exceptions++
		}
	}
	fmt.Printf("breakpoints ON : StringIndexOutOfBounds %d/%d runs\n", exceptions, runs)

	cbreak.SetEnabled(false)
	exceptions = 0
	for i := 0; i < runs; i++ {
		if runOnce() {
			exceptions++
		}
	}
	fmt.Printf("breakpoints OFF: StringIndexOutOfBounds %d/%d runs\n", exceptions, runs)
}
