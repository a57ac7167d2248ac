// Package moldyn models the Java Grande Forum "moldyn" benchmark: a
// small Lennard-Jones molecular-dynamics simulation with velocity-Verlet
// integration, parallelized by particle range. The paper's Table 1
// reports two races (race1 with bound=4, race2 with bound=10): the
// threads accumulate their partial potential energy and virial into
// shared counters with unsynchronized read-modify-write updates, losing
// contributions under the right interleaving.
//
// Accumulations use fixed-point int64 cells, so the threaded sum over
// the same contributions is order-independent: any deviation from the
// sequential reference is a genuine lost update, not floating-point
// reassociation.
package moldyn

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
	BPRace1 = "moldyn.race1" // potential-energy accumulator
	BPRace2 = "moldyn.race2" // virial accumulator
)

const fixedScale = 1 << 20 // fixed-point scale for energy accumulation

// System is a Lennard-Jones particle system in a cubic box.
type System struct {
	N          int
	Box        float64
	X, Y, Z    []float64
	VX, VY, VZ []float64
	FX, FY, FZ []float64
}

// NewSystem places n particles (rounded down to a cube number) on a
// simple cubic lattice with deterministic pseudo-random velocities.
func NewSystem(n int) *System {
	side := int(math.Cbrt(float64(n)))
	if side < 2 {
		side = 2
	}
	n = side * side * side
	s := &System{
		N: n, Box: float64(side) * 1.3,
		X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
		VX: make([]float64, n), VY: make([]float64, n), VZ: make([]float64, n),
		FX: make([]float64, n), FY: make([]float64, n), FZ: make([]float64, n),
	}
	spacing := s.Box / float64(side)
	i := 0
	seed := uint64(12345)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>40)/float64(1<<24) - 0.5
	}
	for a := 0; a < side; a++ {
		for b := 0; b < side; b++ {
			for c := 0; c < side; c++ {
				s.X[i] = (float64(a) + 0.5) * spacing
				s.Y[i] = (float64(b) + 0.5) * spacing
				s.Z[i] = (float64(c) + 0.5) * spacing
				s.VX[i] = next() * 0.1
				s.VY[i] = next() * 0.1
				s.VZ[i] = next() * 0.1
				i++
			}
		}
	}
	return s
}

// pairForce computes the Lennard-Jones force on particle i from particle
// j under minimum-image periodic boundaries, plus the pair's potential
// energy and virial contributions.
func (s *System) pairForce(i, j int) (fx, fy, fz, epot, vir float64) {
	dx := s.X[i] - s.X[j]
	dy := s.Y[i] - s.Y[j]
	dz := s.Z[i] - s.Z[j]
	dx -= s.Box * math.Round(dx/s.Box)
	dy -= s.Box * math.Round(dy/s.Box)
	dz -= s.Box * math.Round(dz/s.Box)
	r2 := dx*dx + dy*dy + dz*dz
	const cutoff2 = 6.25 // (2.5 sigma)^2
	if r2 > cutoff2 || r2 == 0 {
		return 0, 0, 0, 0, 0
	}
	inv2 := 1 / r2
	inv6 := inv2 * inv2 * inv2
	inv12 := inv6 * inv6
	epot = 4 * (inv12 - inv6)
	f := 24 * (2*inv12 - inv6) * inv2
	return f * dx, f * dy, f * dz, epot, f * r2
}

// forceRange computes the full force on each particle in [lo, hi) by
// summing over all neighbors (each thread writes only its own range, so
// the force arrays are race-free) and streams fixed-point partial energy
// and virial contributions to the accumulators in chunks, so the shared
// accumulation site executes several times per step — as in the original
// benchmark, where the race site runs hundreds of times. A chunk of 8
// particles gives each worker 16 arrivals per accumulator in a default
// run, above the bound=10 of race2, while keeping the unsynchronized
// updates rare next to the force computation: the two workers compute
// in step, so frequent updates collide without any breakpoint.
func (s *System) forceRange(lo, hi int, addEpot, addVir func(int64)) {
	const chunk = 8
	var epotAcc, virAcc float64
	count := 0
	for i := lo; i < hi; i++ {
		for j := 0; j < s.N; j++ {
			if j == i {
				continue
			}
			fx, fy, fz, e, v := s.pairForce(i, j)
			s.FX[i] += fx
			s.FY[i] += fy
			s.FZ[i] += fz
			epotAcc += e
			virAcc += v
		}
		count++
		if count == chunk {
			addEpot(int64(epotAcc * fixedScale))
			addVir(int64(virAcc * fixedScale))
			epotAcc, virAcc = 0, 0
			count = 0
		}
	}
	addEpot(int64(epotAcc * fixedScale))
	addVir(int64(virAcc * fixedScale))
}

// integrate advances positions and velocities one step (velocity
// Verlet, unit mass, dt = 0.004).
func (s *System) integrate() {
	const dt = 0.004
	for i := 0; i < s.N; i++ {
		s.VX[i] += s.FX[i] * dt
		s.VY[i] += s.FY[i] * dt
		s.VZ[i] += s.FZ[i] * dt
		s.X[i] += s.VX[i] * dt
		s.Y[i] += s.VY[i] * dt
		s.Z[i] += s.VZ[i] * dt
		s.FX[i], s.FY[i], s.FZ[i] = 0, 0, 0
	}
}

// Bug selects which racy accumulator a run exercises.
type Bug int

// The moldyn bugs of Table 1.
const (
	Race1 Bug = iota // epot accumulator, paper bound=4
	Race2            // virial accumulator, paper bound=10
)

// Config parameterizes a run.
type Config struct {
	Engine     *core.Engine
	Bug        Bug
	Breakpoint bool
	Timeout    time.Duration
	// Bound limits breakpoint hits (paper: 4 for race1, 10 for race2).
	Bound int
}

// numParticles is the requested particle count and numSteps the number
// of MD steps.
const (
	numParticles = 64
	numSteps     = 4
)

func (c *Config) bound() int {
	if c.Bound > 0 {
		return c.Bound
	}
	if c.Bug == Race1 {
		return 4
	}
	return 10
}

func bpName(b Bug) string {
	if b == Race1 {
		return BPRace1
	}
	return BPRace2
}

// Run executes the simulation twice — sequential reference, then the
// two-thread version with racy accumulators — and compares the total
// energies. A mismatch is the manifested race (test failure).
func Run(cfg Config) appkit.Result {
	if cfg.Engine == nil {
		cfg.Engine = core.NewEngine()
	}
	n := numParticles

	// Sequential reference, computed over the same two ranges as the
	// parallel version so the fixed-point chunk groupings are identical
	// and any sum difference is a genuine lost update.
	ref := NewSystem(n)
	var refEpot, refVir int64
	for st := 0; st < numSteps; st++ {
		mid := ref.N / 2
		ref.forceRange(0, mid, func(d int64) { refEpot += d }, func(d int64) { refVir += d })
		ref.forceRange(mid, ref.N, func(d int64) { refEpot += d }, func(d int64) { refVir += d })
		ref.integrate()
	}

	res := appkit.RunWithDeadline(120*time.Second, func() appkit.Result {
		sys := NewSystem(n)
		sp := memory.NewSpace()
		epot := memory.NewCell(sp, "moldyn.epot", 0)
		vir := memory.NewCell(sp, "moldyn.vir", 0)

		addRacy := func(cell *memory.Cell, name string, active bool, worker int) func(int64) {
			// The site labels are built here, not between the read
			// and the write, so the racy window holds only the
			// breakpoint.
			readSite, writeSite := name+".read", name+".write"
			return func(d int64) {
				if d == 0 {
					return
				}
				v := cell.Load(readSite)
				if active {
					cfg.Engine.TriggerHere(core.NewConflictTrigger(name, cell), worker == 0,
						core.Options{Timeout: cfg.Timeout, Bound: cfg.bound()})
				}
				cell.Store(writeSite, v+d)
			}
		}

		for st := 0; st < numSteps; st++ {
			var wg sync.WaitGroup
			mid := sys.N / 2
			ranges := [][2]int{{0, mid}, {mid, sys.N}}
			for w, r := range ranges {
				wg.Add(1)
				go func(w int, lo, hi int) {
					defer wg.Done()
					sys.forceRange(lo, hi,
						addRacy(epot, BPRace1, cfg.Breakpoint && cfg.Bug == Race1, w),
						addRacy(vir, BPRace2, cfg.Breakpoint && cfg.Bug == Race2, w))
				}(w, r[0], r[1])
			}
			wg.Wait()
			sys.integrate()
		}

		// Note: the two halves interact across the boundary, so the
		// force arrays are also shared; the reference uses the same
		// split ordering to keep trajectories comparable. Energy
		// accumulation order does not affect the fixed-point sums.
		if epot.Load("check") != refEpot {
			return appkit.Result{Status: appkit.TestFail,
				Detail: fmt.Sprintf("epot lost update: got %d want %d", epot.Load("check"), refEpot)}
		}
		if vir.Load("check") != refVir {
			return appkit.Result{Status: appkit.TestFail,
				Detail: fmt.Sprintf("virial lost update: got %d want %d", vir.Load("check"), refVir)}
		}
		return appkit.Result{Status: appkit.OK}
	})
	res.BPHit = cfg.Engine.Stats(bpName(cfg.Bug)).Hits() > 0
	return res
}
