package memory

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"cbreak/internal/locks"
)

type recTracer struct {
	mu     sync.Mutex
	events []string
}

func (r *recTracer) OnAccess(gid uint64, c *Cell, op Op, site string) {
	r.mu.Lock()
	r.events = append(r.events, fmt.Sprintf("%s %s @%s", op, c.Name(), site))
	r.mu.Unlock()
}

func (r *recTracer) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

func TestCellLoadStore(t *testing.T) {
	c := NewCell(nil, "x", 7)
	if got := c.Load("t:1"); got != 7 {
		t.Fatalf("Load = %d, want 7", got)
	}
	c.Store("t:2", 42)
	if got := c.Load("t:3"); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
	if c.Name() != "x" {
		t.Errorf("Name = %q", c.Name())
	}
	if s := c.String(); s != "Cell(x=42)" {
		t.Errorf("String = %q", s)
	}
}

func TestTracerSeesAccesses(t *testing.T) {
	sp := NewSpace()
	tr := &recTracer{}
	sp.Trace(tr)
	c := NewCell(sp, "y", 0)
	//cbvet:ignore conflicts unrelated test fixtures share the class name "y" (detect_test locks its own); class identity merges them
	c.Store("s:1", 1)
	c.Load("s:2")
	c.Add("s:3", 1) // one read + one write
	if got := tr.len(); got != 4 {
		t.Fatalf("tracer events = %d, want 4", got)
	}
	sp.Trace(nil)
	c.Store("s:4", 9)
	if got := tr.len(); got != 4 {
		t.Fatalf("detached tracer still receiving events: %d", got)
	}
}

func TestNilSpaceIsSafe(t *testing.T) {
	c := NewCell(nil, "z", 0)
	c.Store("n:1", 5)
	if c.Load("n:2") != 5 {
		t.Fatal("nil-space cell broken")
	}
}

func TestRacyAddCanLoseUpdates(t *testing.T) {
	// Not strictly deterministic, but with enough contention the racy
	// Add virtually always loses updates; the atomic version never does.
	const goroutines, iters = 8, 5000
	racy := NewCell(nil, "racy", 0)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				racy.Add("r", 1)
			}
		}()
	}
	wg.Wait()
	if got := racy.Load("r"); got > goroutines*iters {
		t.Fatalf("racy counter exceeded total increments: %d", got)
	}

	atomicCell := NewCell(nil, "atomic", 0)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				atomicCell.AtomicAdd("a", 1)
			}
		}()
	}
	wg.Wait()
	if got := atomicCell.Load("a"); got != goroutines*iters {
		t.Fatalf("atomic counter = %d, want %d", got, goroutines*iters)
	}
}

func TestCompareAndSwap(t *testing.T) {
	c := NewCell(nil, "cas", 1)
	if !c.CompareAndSwap("c", 1, 2) {
		t.Fatal("CAS 1->2 failed")
	}
	if c.CompareAndSwap("c", 1, 3) {
		t.Fatal("CAS with stale old value succeeded")
	}
	if c.Load("c") != 2 {
		t.Fatalf("value = %d, want 2", c.Load("c"))
	}
}

func TestRefLoadStore(t *testing.T) {
	type obj struct{ v int }
	sp := NewSpace()
	tr := &recTracer{}
	sp.Trace(tr)
	r := NewRef[obj](sp, "ref", nil)
	if r.Load("r:1") != nil {
		t.Fatal("initial ref not nil")
	}
	o := &obj{v: 3}
	r.Store("r:2", o)
	if got := r.Load("r:3"); got != o {
		t.Fatal("ref did not round-trip")
	}
	if tr.len() != 3 {
		t.Fatalf("ref tracer events = %d, want 3", tr.len())
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Op.String broken")
	}
}

func TestCellRoundTripProperty(t *testing.T) {
	c := NewCell(nil, "prop", 0)
	f := func(v int64) bool {
		c.Store("p", v)
		return c.Load("p") == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSequentialProperty(t *testing.T) {
	// Sequentially, racy Add must behave exactly like arithmetic.
	f := func(init int64, deltas []int8) bool {
		c := NewCell(nil, "seq", init)
		want := init
		for _, d := range deltas {
			want += int64(d)
			if got := c.Add("p", int64(d)); got != want {
				return false
			}
		}
		return c.Load("p") == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

type cellTracer struct {
	mu    sync.Mutex
	cells []*Cell
}

func (r *cellTracer) OnAccess(gid uint64, c *Cell, op Op, site string) {
	r.mu.Lock()
	r.cells = append(r.cells, c)
	r.mu.Unlock()
}

func TestRefReportsOneCellPerRef(t *testing.T) {
	sp := NewSpace()
	tr := &cellTracer{}
	sp.Trace(tr)
	a := NewRef[int](sp, "a", nil)
	b := NewRef[int](sp, "b", nil)
	a.Load("1")
	a.Store("2", new(int))
	b.Load("3")
	if len(tr.cells) != 3 {
		t.Fatalf("tracer events = %d, want 3", len(tr.cells))
	}
	if tr.cells[0] != tr.cells[1] {
		t.Fatal("one ref reported two cell identities")
	}
	if tr.cells[0] == tr.cells[2] {
		t.Fatal("two refs reported one cell identity")
	}
	if tr.cells[0].Name() != "a" || tr.cells[2].Name() != "b" {
		t.Fatalf("cell names = %q, %q", tr.cells[0].Name(), tr.cells[2].Name())
	}
}

func TestTracerSeesGoroutineID(t *testing.T) {
	sp := NewSpace()
	var got uint64
	sp.Trace(tracerFunc(func(gid uint64) { got = gid }))
	NewCell(sp, "g", 0).Load("g:1")
	if got == 0 || got != locks.GoroutineID() {
		t.Fatalf("tracer gid = %d, want %d", got, locks.GoroutineID())
	}
}

type tracerFunc func(gid uint64)

func (f tracerFunc) OnAccess(gid uint64, c *Cell, op Op, site string) { f(gid) }

// The untraced pair is what the applications' racy read-modify-writes
// pay between their read and their write; the traced pair adds the
// goroutine-id parse and the tracer call.
func BenchmarkLoadStoreUntraced(b *testing.B) {
	c := NewCell(NewSpace(), "u", 0)
	for i := 0; i < b.N; i++ {
		c.Store("w", c.Load("r")+1)
	}
}

func BenchmarkLoadStoreTraced(b *testing.B) {
	sp := NewSpace()
	sp.Trace(tracerFunc(func(uint64) {}))
	c := NewCell(sp, "t", 0)
	for i := 0; i < b.N; i++ {
		c.Store("w", c.Load("r")+1)
	}
}
