// Package swing models the javax.swing RepaintManager / BasicCaret
// deadlock of the paper's evaluation (Table 1 rows "swing / deadlock1"):
//
//   - The event-dispatch thread (EDT) processes UI events. A caret blink
//     locks the BasicCaret monitor and then calls
//     RepaintManager.addDirtyRegion, which locks the RepaintManager.
//   - The repaint timer runs paintDirtyRegions under the RepaintManager
//     lock and calls back into components — locking the caret — to read
//     their bounds. Opposite acquisition orders: a deadlock.
//
// addDirtyRegion is called from many contexts (paper section 6.3); only
// the caret-holding context can actually deadlock. The unrefined
// breakpoint pauses the EDT at every addDirtyRegion call — which is why
// the paper's swing rows show 5x-12x runtime overhead — while the
// isLockTypeHeld(BasicCaret) refinement (Config.Refined here, using
// locks.ClassHeldPred) pauses only in the deadlock-capable context,
// cutting the overhead without losing probability. Event jitter makes
// the rendezvous probabilistic at short pauses (0.63 at 100ms in the
// paper) and near-certain at long ones (0.99 at 1s) — the section 6.2
// sweep.
package swing

import (
	"fmt"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/locks"
)

// BPDeadlock identifies the breakpoint in engine statistics.
const BPDeadlock = "swing.deadlock1"

// CaretClass is the lock class of caret monitors (the paper's
// BasicCaret type).
var CaretClass = locks.NewClass("BasicCaret")

// Rect is a dirty rectangle.
type Rect struct{ X, Y, W, H int }

// union returns the bounding box of a and b.
func union(a, b Rect) Rect {
	if a.W == 0 && a.H == 0 {
		return b
	}
	x1, y1 := min(a.X, b.X), min(a.Y, b.Y)
	x2 := max(a.X+a.W, b.X+b.W)
	y2 := max(a.Y+a.H, b.Y+b.H)
	return Rect{x1, y1, x2 - x1, y2 - y1}
}

// Component is a UI component with a monitor guarding its geometry.
type Component struct {
	mu     *locks.Mutex
	name   string
	bounds Rect
}

// NewComponent returns a component with a plain monitor.
func NewComponent(name string, bounds Rect) *Component {
	return &Component{mu: locks.NewMutex("swing." + name), name: name, bounds: bounds}
}

// NewCaretComponent returns a text component whose monitor belongs to
// the BasicCaret lock class.
func NewCaretComponent(name string, bounds Rect) *Component {
	return &Component{mu: locks.NewClassMutex("swing."+name, CaretClass), name: name, bounds: bounds}
}

// Bounds reads the geometry under the component's monitor.
func (c *Component) Bounds() Rect {
	c.mu.LockAt("Component.java:getBounds")
	defer c.mu.Unlock()
	return c.bounds
}

// RepaintManager collects dirty regions per component and repaints them.
type RepaintManager struct {
	mu      *locks.Mutex
	dirty   map[*Component]Rect
	painted int
	cfg     *Config
}

// NewRepaintManager returns an empty manager.
func NewRepaintManager(cfg *Config) *RepaintManager {
	return &RepaintManager{
		mu:    locks.NewMutex("swing.repaintManager"),
		dirty: make(map[*Component]Rect),
		cfg:   cfg,
	}
}

// AddDirtyRegion merges r into comp's dirty region: the EDT-side
// deadlock site. The breakpoint side inserted here reports the lock the
// caller actually holds, so only the caret-holding context can match the
// repaint thread's crossed pair.
func (rm *RepaintManager) AddDirtyRegion(comp *Component, r Rect) {
	if rm.cfg != nil && rm.cfg.Breakpoint {
		var held any
		if locks.IsHeld(comp.mu) {
			held = comp.mu
		}
		opts := core.Options{Timeout: rm.cfg.Timeout}
		if rm.cfg.Refined {
			// isLockTypeHeld(BasicCaret): skip the pause in contexts
			// that cannot deadlock (section 6.3).
			opts.ExtraLocal = locks.ClassHeldPred(CaretClass)
		}
		rm.cfg.Engine.TriggerHere(
			core.NewDeadlockTrigger(BPDeadlock, held, rm.mu), true, opts)
	}
	rm.mu.LockAt("RepaintManager.java:addDirtyRegion")
	defer rm.mu.Unlock()
	rm.dirty[comp] = union(rm.dirty[comp], r)
}

// PaintDirtyRegions walks the dirty set under the manager lock, reading
// each component's bounds — the repaint-thread-side deadlock site.
func (rm *RepaintManager) PaintDirtyRegions() int {
	rm.mu.LockAt("RepaintManager.java:paintDirtyRegions")
	defer rm.mu.Unlock()
	painted := 0
	// Resolve the handle once; the trigger site below runs per dirty
	// component and skips the registry lookup.
	var bpDeadlock *core.Breakpoint
	if rm.cfg != nil && rm.cfg.Breakpoint {
		bpDeadlock = rm.cfg.Engine.Breakpoint(BPDeadlock)
	}
	for comp, r := range rm.dirty {
		if bpDeadlock != nil {
			bpDeadlock.Trigger(
				core.NewDeadlockTrigger(BPDeadlock, rm.mu, comp.mu), false,
				core.Options{Timeout: rm.cfg.Timeout})
		}
		// Bounds locks the component while holding rm.mu.
		//cbvet:ignore lockorder intentional: the Swing repaint-vs-caret deadlock repro (manager then component)
		b := comp.Bounds()
		clipped := r
		if clipped.W > b.W {
			clipped.W = b.W
		}
		if clipped.H > b.H {
			clipped.H = b.H
		}
		painted++
		delete(rm.dirty, comp)
	}
	rm.painted += painted
	return painted
}

// Caret is a blinking text caret: each blink updates geometry under the
// caret monitor and requests a repaint while still holding it.
type Caret struct {
	comp    *Component
	rm      *RepaintManager
	visible bool
}

// NewCaret returns a caret on comp.
func NewCaret(comp *Component, rm *RepaintManager) *Caret {
	return &Caret{comp: comp, rm: rm}
}

// Blink toggles the caret: BasicCaret monitor, then AddDirtyRegion —
// the deadlock-capable context.
func (c *Caret) Blink() {
	c.comp.mu.LockAt("BasicCaret.java:blink")
	defer c.comp.mu.Unlock()
	c.visible = !c.visible
	//cbvet:ignore lockorder intentional: the Swing repaint-vs-caret deadlock repro (component then manager)
	c.rm.AddDirtyRegion(c.comp, Rect{X: 10, Y: 4, W: 2, H: 14})
}

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Breakpoint bool
	// Timeout is the breakpoint pause (section 6.2 knob: 100ms vs 1s).
	Timeout time.Duration
	// Refined enables the isLockTypeHeld(BasicCaret) local-predicate
	// refinement (section 6.3).
	Refined bool
	// StallAfter bounds deadlock detection (default 3s).
	StallAfter time.Duration
	// Events is the EDT workload length (default 60).
	Events int
	// EventJitter is the per-event processing time scale (default
	// 500µs): the source of rendezvous misses at short pauses.
	EventJitter time.Duration
	// PaintCycles is how many repaint-timer cycles run (default 10).
	PaintCycles int
}

func (c *Config) stallAfter() time.Duration {
	if c.StallAfter <= 0 {
		return 3 * time.Second
	}
	return c.StallAfter
}

func (c *Config) events() int {
	if c.Events <= 0 {
		return 60
	}
	return c.Events
}

func (c *Config) jitter() time.Duration {
	if c.EventJitter <= 0 {
		return 500 * time.Microsecond
	}
	return c.EventJitter
}

func (c *Config) paintCycles() int {
	if c.PaintCycles <= 0 {
		return 10
	}
	return c.PaintCycles
}

// Run drives an EDT processing a mixed event stream (caret blinks and
// plain repaints) against a repaint timer; the crossed lock orders
// deadlock when the breakpoint aligns a blink with a paint cycle.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	rm := NewRepaintManager(&cfg)
	text := NewCaretComponent("textField", Rect{0, 0, 200, 20})
	button := NewComponent("button", Rect{0, 30, 80, 24})
	caret := NewCaret(text, rm)

	res := appkit.RunWithDeadline(cfg.stallAfter(), func() appkit.Result {
		done := make(chan struct{}, 2)
		edtDone := make(chan struct{})
		// EDT: mixed event stream with deterministic jitter.
		go func() {
			h := uint64(99991)
			for i := 0; i < cfg.events(); i++ {
				h = h*6364136223846793005 + 1442695040888963407
				d := time.Duration(h % uint64(cfg.jitter()))
				time.Sleep(d)
				switch i % 3 {
				case 0:
					caret.Blink() // deadlock-capable context
				case 1:
					// Resize damage to the text field — same component,
					// but without the caret lock: a harmless context.
					rm.AddDirtyRegion(text, Rect{0, 0, 200, 20})
				default:
					rm.AddDirtyRegion(button, Rect{0, 30, 80, 24}) // harmless context
				}
			}
			close(edtDone)
			done <- struct{}{}
		}()
		// Repaint timer: runs for the EDT's whole lifetime (like the
		// real Swing repaint timer), at least paintCycles times.
		go func() {
			i := 0
			for {
				time.Sleep(2 * time.Millisecond)
				rm.PaintDirtyRegions()
				i++
				if i >= cfg.paintCycles() {
					select {
					case <-edtDone:
						rm.PaintDirtyRegions()
						done <- struct{}{}
						return
					default:
					}
				}
			}
		}()
		<-done
		<-done
		return appkit.Result{Status: appkit.OK}
	})
	if res.Status == appkit.Stall {
		res.Detail = fmt.Sprintf("EDT and repaint timer deadlocked (refined=%v)", cfg.Refined)
	}
	res.BPHit = cfg.Engine.Stats(BPDeadlock).Hits() > 0
	return res
}
