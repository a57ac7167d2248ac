// Package prob implements the probabilistic analysis of section 3 of the
// paper: the chance that two independently-executing threads reach a
// concurrent breakpoint with and without the BTrigger pausing mechanism,
// plus Monte Carlo simulations that validate the closed forms.
//
// Model: each of two threads executes N uniform steps. A thread visits a
// state satisfying its local predicate phi_t at M steps chosen uniformly
// at random, m of which (m <= M) satisfy the full breakpoint predicate.
//
//   - Without BTrigger, the breakpoint is hit only if the two threads'
//     breakpoint states coincide in time:
//     P = 1 - C(N-m, m)/C(N, m)  ~=  m^2/(N-m+1).
//   - With BTrigger, a thread pauses T time units at every phi_t state,
//     stretching its execution to N + M*T steps and widening each
//     breakpoint state into a window of length T:
//     P >= 1 - C(N'-m*T, m)/C(N', m), N' = N + M*T - M
//     ~=  m^2*T / (N + M*T - M).
//   - The improvement factor is therefore at least
//     T*(N - m + 1) / (N + M*T - M),
//     which grows with T and shrinks as M grows relative to m — the
//     formal justification for the paper's two tuning knobs: longer
//     pauses (section 6.2) and more precise predicates, which lower M
//     (section 6.3).
package prob

import (
	"fmt"
	"math"
	"math/rand"
)

// lnChoose returns ln(C(n, k)) using the log-gamma function; it is exact
// enough for ratios of binomials with n up to ~1e15.
func lnChoose(n, k float64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(n + 1)
	ln2, _ := math.Lgamma(k + 1)
	ln3, _ := math.Lgamma(n - k + 1)
	return ln1 - ln2 - ln3
}

// ExactBase returns the exact model probability that two threads hit the
// breakpoint without BTrigger: 1 - C(N-m, m)/C(N, m).
func ExactBase(n, m int) float64 {
	if m <= 0 || n <= 0 {
		return 0
	}
	if 2*m > n {
		return 1 // the m-subsets cannot avoid each other
	}
	return 1 - math.Exp(lnChoose(float64(n-m), float64(m))-lnChoose(float64(n), float64(m)))
}

// ApproxBase returns the paper's small-m approximation m^2/(N-m+1).
func ApproxBase(n, m int) float64 {
	if m <= 0 || n <= 0 {
		return 0
	}
	return math.Min(1, float64(m)*float64(m)/float64(n-m+1))
}

// ExactTriggerLB returns the model lower bound with BTrigger pausing T
// units at each of the M phi_t states: 1 - C(N'-mT, m)/C(N', m) with
// N' = N + M*T - M.
func ExactTriggerLB(n, mBig, m, t int) float64 {
	if m <= 0 || n <= 0 || t <= 0 {
		return ExactBase(n, m)
	}
	nPrime := n + mBig*t - mBig
	if nPrime <= 0 {
		return 1
	}
	if m*t >= nPrime {
		return 1
	}
	return 1 - math.Exp(lnChoose(float64(nPrime-m*t), float64(m))-lnChoose(float64(nPrime), float64(m)))
}

// ApproxTrigger returns the paper's approximation m^2*T/(N + M*T - M).
func ApproxTrigger(n, mBig, m, t int) float64 {
	if m <= 0 || n <= 0 {
		return 0
	}
	den := float64(n + mBig*t - mBig)
	if den <= 0 {
		return 1
	}
	return math.Min(1, float64(m)*float64(m)*float64(t)/den)
}

// ImprovementFactor returns the paper's lower bound on the probability
// amplification BTrigger provides: T*(N-m+1)/(N + M*T - M).
func ImprovementFactor(n, mBig, m, t int) float64 {
	den := float64(n + mBig*t - mBig)
	if den <= 0 {
		return math.Inf(1)
	}
	return float64(t) * float64(n-m+1) / den
}

// RuntimeFactor returns the model's execution-time cost of BTrigger: a
// thread that pauses T units at each of its M phi states takes N + M*T
// steps instead of N, a factor of (N + M*T)/N. This is the overhead side
// of the section 3 trade-off: raising T amplifies the hit probability
// but stretches the run (the section 6.2 rows where overhead reached
// 12x), while lowering M via predicate precision reduces cost without
// reducing the amplification per hit (section 6.3).
func RuntimeFactor(n, mBig, t int) float64 {
	if n <= 0 {
		return 1
	}
	return float64(n+mBig*t) / float64(n)
}

// MonteCarloBase estimates the no-trigger hit probability by simulation:
// both threads place m breakpoint states uniformly at random among N
// steps; a hit is a common time step. It validates ExactBase.
func MonteCarloBase(n, m, runs int, seed int64) float64 {
	if m <= 0 || n <= 0 || runs <= 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	hits := 0
	stepsA := make([]int, 0, m)
	occupied := make(map[int]bool, m)
	for r := 0; r < runs; r++ {
		stepsA = sampleSteps(rng, n, m, stepsA[:0])
		clear(occupied)
		for _, s := range stepsA {
			occupied[s] = true
		}
		hit := false
		for _, s := range sampleSteps(rng, n, m, nil) {
			if occupied[s] {
				hit = true
				break
			}
		}
		if hit {
			hits++
		}
	}
	return float64(hits) / float64(runs)
}

// MonteCarloTrigger estimates the with-trigger hit probability: each
// thread pauses T units at each of its M phi states (m of them are
// breakpoint states), so the k-th state, placed at step s_k, occupies the
// wall-clock window [s_k + k*T, s_k + (k+1)*T). A hit is an overlap
// between a breakpoint window of thread 1 and one of thread 2 — one
// thread postponed while the other arrives, which is exactly BTrigger's
// rendezvous.
func MonteCarloTrigger(n, mBig, m, t, runs int, seed int64) float64 {
	if m <= 0 || n <= 0 || runs <= 0 || mBig < m {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	hits := 0
	for r := 0; r < runs; r++ {
		w1 := triggerWindows(rng, n, mBig, m, t)
		w2 := triggerWindows(rng, n, mBig, m, t)
		if windowsOverlap(w1, w2) {
			hits++
		}
	}
	return float64(hits) / float64(runs)
}

type window struct{ lo, hi float64 }

// triggerWindows returns the wall-clock windows of the m breakpoint
// states among M paused states placed uniformly in N steps.
func triggerWindows(rng *rand.Rand, n, mBig, m, t int) []window {
	steps := sampleSteps(rng, n, mBig, nil) // sorted
	// Choose which m of the M phi states are breakpoint states.
	idx := rng.Perm(mBig)[:m]
	out := make([]window, 0, m)
	for _, k := range idx {
		// k pauses of length t happen before this state's own pause.
		lo := float64(steps[k] + k*t)
		out = append(out, window{lo: lo, hi: lo + float64(t)})
	}
	return out
}

func windowsOverlap(a, b []window) bool {
	for _, x := range a {
		for _, y := range b {
			if x.lo < y.hi && y.lo < x.hi {
				return true
			}
		}
	}
	return false
}

// sampleSteps draws k distinct steps from [0, n) and returns them sorted
// ascending (Floyd's algorithm plus insertion into a slice).
func sampleSteps(rng *rand.Rand, n, k int, buf []int) []int {
	chosen := make(map[int]bool, k)
	out := buf[:0]
	for j := n - k; j < n; j++ {
		v := rng.Intn(j + 1)
		if chosen[v] {
			v = j
		}
		chosen[v] = true
		out = append(out, v)
	}
	// insertion sort: k is small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Point is one row of a model sweep.
type Point struct {
	N, M, MSmall, T int
	Base            float64 // exact, no trigger
	Trigger         float64 // exact lower bound with trigger
	Improvement     float64
}

// Sweep evaluates the closed forms over a grid of T values for fixed N,
// M, m — the data behind the paper's argument that raising T or lowering
// M raises hit probability.
func Sweep(n, mBig, m int, ts []int) []Point {
	out := make([]Point, 0, len(ts))
	for _, t := range ts {
		out = append(out, Point{
			N: n, M: mBig, MSmall: m, T: t,
			Base:        ExactBase(n, m),
			Trigger:     ExactTriggerLB(n, mBig, m, t),
			Improvement: ImprovementFactor(n, mBig, m, t),
		})
	}
	return out
}

// String formats a point as a table row.
func (p Point) String() string {
	return fmt.Sprintf("N=%-8d M=%-5d m=%-3d T=%-6d base=%.6f trigger=%.6f gain=%.1fx",
		p.N, p.M, p.MSmall, p.T, p.Base, p.Trigger, p.Improvement)
}
