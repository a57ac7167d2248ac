// Package raytracer models the Java Grande Forum "raytracer" benchmark:
// a small Whitted-style ray tracer (sphere scene, point light, shadow
// rays) parallelized by image row. The pixel buffer is partitioned and
// race-free; the seeded bugs are four shared statistics updated
// read-modify-write without synchronization, mirroring the well-known
// checksum race in the original benchmark (Table 1 rows "raytracer"
// race1-race4):
//
//	race1: the image checksum accumulator        (paper: no visible error)
//	race2: the rows-completed counter            (paper: test fail)
//	race3: the rays-traced counter
//	race4: the shadow-hit counter
//
// Each race manifests as a final statistic that disagrees with the
// sequential reference — a validation failure.
package raytracer

import (
	"fmt"
	"math"
	"sync"
	"time"

	"cbreak/internal/apps/appkit"
	"cbreak/internal/core"
	"cbreak/internal/memory"
)

// Breakpoint names for engine statistics.
const (
	BPRace1 = "raytracer.race1" // checksum
	BPRace2 = "raytracer.race2" // rows done
	BPRace3 = "raytracer.race3" // rays traced
	BPRace4 = "raytracer.race4" // shadow hits
)

// Vec is a 3-vector.
type Vec struct{ X, Y, Z float64 }

// Add returns a + b.
func (a Vec) Add(b Vec) Vec { return Vec{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec) Sub(b Vec) Vec { return Vec{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a * s.
func (a Vec) Scale(s float64) Vec { return Vec{a.X * s, a.Y * s, a.Z * s} }

// Dot returns a . b.
func (a Vec) Dot(b Vec) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Norm returns the unit vector of a.
func (a Vec) Norm() Vec {
	l := math.Sqrt(a.Dot(a))
	if l == 0 {
		return a
	}
	return a.Scale(1 / l)
}

// Sphere is a scene object.
type Sphere struct {
	Center Vec
	Radius float64
	Color  float64 // grayscale albedo
}

// Intersect returns the nearest positive ray parameter t for ray
// origin+dir*t hitting the sphere, or +Inf.
func (s Sphere) Intersect(origin, dir Vec) float64 {
	oc := origin.Sub(s.Center)
	b := oc.Dot(dir)
	c := oc.Dot(oc) - s.Radius*s.Radius
	disc := b*b - c
	if disc < 0 {
		return math.Inf(1)
	}
	sq := math.Sqrt(disc)
	if t := -b - sq; t > 1e-6 {
		return t
	}
	if t := -b + sq; t > 1e-6 {
		return t
	}
	return math.Inf(1)
}

// Scene holds the objects, light, and camera of a render.
type Scene struct {
	Spheres []Sphere
	Light   Vec
	Eye     Vec
	W, H    int
}

// DefaultScene returns the benchmark scene: a triangle of spheres over a
// large ground sphere.
func DefaultScene(w, h int) *Scene {
	return &Scene{
		Spheres: []Sphere{
			{Center: Vec{0, 0, 5}, Radius: 1, Color: 0.9},
			{Center: Vec{-1.8, 0.4, 6}, Radius: 0.8, Color: 0.7},
			{Center: Vec{1.6, -0.3, 4.5}, Radius: 0.6, Color: 0.8},
			{Center: Vec{0, -101, 5}, Radius: 100, Color: 0.5}, // ground
		},
		Light: Vec{-3, 5, 0},
		Eye:   Vec{0, 0, -1},
		W:     w, H: h,
	}
}

// tracePixel shades pixel (x, y) and reports the 0-255 luminance, the
// number of rays cast, and whether the shadow ray was blocked.
func (sc *Scene) tracePixel(x, y int) (lum int64, rays int64, shadowed bool) {
	u := (float64(x)/float64(sc.W) - 0.5) * 2 * float64(sc.W) / float64(sc.H)
	v := (0.5 - float64(y)/float64(sc.H)) * 2
	dir := Vec{u, v, 2}.Norm()
	rays++

	tMin := math.Inf(1)
	var hit *Sphere
	for i := range sc.Spheres {
		if t := sc.Spheres[i].Intersect(sc.Eye, dir); t < tMin {
			tMin = t
			hit = &sc.Spheres[i]
		}
	}
	if hit == nil {
		return 16, rays, false // sky
	}
	p := sc.Eye.Add(dir.Scale(tMin))
	n := p.Sub(hit.Center).Norm()
	l := sc.Light.Sub(p).Norm()

	// Shadow ray.
	rays++
	lightDist := math.Sqrt(sc.Light.Sub(p).Dot(sc.Light.Sub(p)))
	for i := range sc.Spheres {
		if t := sc.Spheres[i].Intersect(p.Add(n.Scale(1e-4)), l); t < lightDist {
			shadowed = true
			break
		}
	}
	diffuse := math.Max(0, n.Dot(l))
	if shadowed {
		diffuse *= 0.1
	}
	val := hit.Color * (0.1 + 0.9*diffuse) * 255
	return int64(val), rays, shadowed
}

// Stats are the render's validation statistics.
type Stats struct {
	Checksum   int64
	RowsDone   int64
	RaysTraced int64
	ShadowHits int64
}

// RenderSequential renders the scene single-threaded and returns the
// reference statistics.
func (sc *Scene) RenderSequential() Stats {
	var st Stats
	for y := 0; y < sc.H; y++ {
		var rowSum, rowRays, rowShadow int64
		for x := 0; x < sc.W; x++ {
			lum, rays, sh := sc.tracePixel(x, y)
			rowSum += lum
			rowRays += rays
			if sh {
				rowShadow++
			}
		}
		st.Checksum += rowSum
		st.RaysTraced += rowRays
		st.ShadowHits += rowShadow
		st.RowsDone++
	}
	return st
}

// Bug selects which racy statistic a run exercises.
type Bug int

// The raytracer bugs of Table 1.
const (
	Race1 Bug = iota // checksum
	Race2            // rows done (test fail)
	Race3            // rays traced
	Race4            // shadow hits
)

func bpName(b Bug) string {
	switch b {
	case Race1:
		return BPRace1
	case Race2:
		return BPRace2
	case Race3:
		return BPRace3
	default:
		return BPRace4
	}
}

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Bug        Bug
	Breakpoint bool
	Timeout    time.Duration
	// Bound limits breakpoint hits (default 2).
	Bound int
	// Width and Height of the image (default 64x48).
	Width, Height int
}

func (c *Config) dims() (int, int) {
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 64
	}
	if h <= 0 {
		h = 48
	}
	return w, h
}

func (c *Config) bound() int {
	if c.Bound > 0 {
		return c.Bound
	}
	return 2
}

// rowsPerFlush is how many rows a worker renders between its updates of
// the shared statistics. The two workers render rows of similar cost in
// step, so their updates tend to coincide; batching keeps them rare
// relative to the rendering, which makes a natural lost update rare
// (measured rates in EXPERIMENTS.md), while leaving each worker several
// arrivals at every breakpoint.
const rowsPerFlush = 4

// Run renders the scene with two row-partitioned workers whose
// statistics updates are racy, then validates against the sequential
// reference. A mismatch in the statistic selected by cfg.Bug is the
// manifested race.
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	w, h := cfg.dims()
	scene := DefaultScene(w, h)
	ref := scene.RenderSequential()

	res := appkit.RunWithDeadline(120*time.Second, func() appkit.Result {
		sp := memory.NewSpace()
		checksum := memory.NewCell(sp, "rt.checksum", 0)
		rowsDone := memory.NewCell(sp, "rt.rowsDone", 0)
		raysTraced := memory.NewCell(sp, "rt.rays", 0)
		shadowHits := memory.NewCell(sp, "rt.shadow", 0)

		racyAdd := func(cell *memory.Cell, bug Bug) func(worker int, d int64) {
			// The site labels are built here, not between the read and
			// the write, so the racy window holds only the breakpoint.
			name := bpName(bug)
			readSite, writeSite := name+".read", name+".write"
			active := cfg.Breakpoint && cfg.Bug == bug
			return func(worker int, d int64) {
				v := cell.Load(readSite)
				if active {
					cfg.Engine.TriggerHere(core.NewConflictTrigger(name, cell), worker == 0,
						core.Options{Timeout: cfg.Timeout, Bound: cfg.bound()})
				}
				cell.Store(writeSite, v+d)
			}
		}
		addChecksum := racyAdd(checksum, Race1)
		addRows := racyAdd(rowsDone, Race2)
		addRays := racyAdd(raysTraced, Race3)
		addShadow := racyAdd(shadowHits, Race4)

		var wg sync.WaitGroup
		for wk := 0; wk < 2; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				var sum, rays, shadow, rows int64
				flush := func() {
					addChecksum(wk, sum)
					addRays(wk, rays)
					addShadow(wk, shadow)
					addRows(wk, rows)
					sum, rays, shadow, rows = 0, 0, 0, 0
				}
				for y := wk; y < h; y += 2 {
					for x := 0; x < w; x++ {
						lum, r, sh := scene.tracePixel(x, y)
						sum += lum
						rays += r
						if sh {
							shadow++
						}
					}
					if rows++; rows == rowsPerFlush {
						flush()
					}
				}
				if rows > 0 {
					flush()
				}
			}(wk)
		}
		wg.Wait()

		got := Stats{
			Checksum:   checksum.Load("check"),
			RowsDone:   rowsDone.Load("check"),
			RaysTraced: raysTraced.Load("check"),
			ShadowHits: shadowHits.Load("check"),
		}
		type pair struct {
			bug       Bug
			got, want int64
			label     string
		}
		for _, p := range []pair{
			{Race1, got.Checksum, ref.Checksum, "checksum"},
			{Race2, got.RowsDone, ref.RowsDone, "rowsDone"},
			{Race3, got.RaysTraced, ref.RaysTraced, "raysTraced"},
			{Race4, got.ShadowHits, ref.ShadowHits, "shadowHits"},
		} {
			if p.got != p.want {
				return appkit.Result{Status: appkit.TestFail,
					Detail: fmt.Sprintf("%s mismatch: got %d want %d", p.label, p.got, p.want)}
			}
		}
		return appkit.Result{Status: appkit.OK}
	})
	res.BPHit = cfg.Engine.Stats(bpName(cfg.Bug)).Hits() > 0
	return res
}
