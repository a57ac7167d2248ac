package cycles

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// bruteForce lists the elementary cycles of the digraph on nodes
// 0..n-1 the slow way: every simple path from each start s through
// nodes above s that arcs back to s, of at most maxLen nodes, sorted
// lexicographically.
func bruteForce(adj [][]int, maxLen int) [][]int {
	var out [][]int
	for s := range adj {
		var path []int
		var extend func(v int)
		extend = func(v int) {
			path = append(path, v)
			for _, w := range adj[v] {
				switch {
				case w == s:
					out = append(out, slices.Clone(path))
				case w > s && !slices.Contains(path, w) && (maxLen <= 0 || len(path) < maxLen):
					extend(w)
				}
			}
			path = path[:len(path)-1]
		}
		extend(s)
	}
	slices.SortFunc(out, slices.Compare[[]int])
	return out
}

// randomDigraph returns distinct successor lists over 0..n-1 with arc
// probability p, self-loops included, in random order.
func randomDigraph(r *rand.Rand, n int, p float64) [][]int {
	adj := make([][]int, n)
	for v := range adj {
		for _, w := range r.Perm(n) {
			if r.Float64() < p {
				adj[v] = append(adj[v], w)
			}
		}
	}
	return adj
}

func findAll(nodes []int, adj [][]int, maxLen int) [][]int {
	var got [][]int
	Find(nodes, func(v int) []int { return adj[v] }, maxLen, func(c []int) bool {
		got = append(got, c)
		return true
	})
	return got
}

// TestFindMatchesBruteForce checks the search on small random digraphs:
// every elementary cycle within the bound appears exactly once, rotated
// to its least node, in lexicographic order.
func TestFindMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(8)
		adj := randomDigraph(r, n, []float64{0.1, 0.25, 0.4, 0.7}[trial%4])
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
		for _, maxLen := range []int{0, 1, 2, 3, 5} {
			want := bruteForce(adj, maxLen)
			if got := findAll(nodes, adj, maxLen); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
				t.Fatalf("graph %v, maxLen %d:\n got  %v\n want %v", adj, maxLen, got, want)
			}
		}
	}
}

// TestFindOrdersByNodePosition: "least" is the position in nodes, not
// the value, and successors outside nodes or repeated are ignored.
func TestFindOrdersByNodePosition(t *testing.T) {
	succ := map[string][]string{
		"b": {"a", "a", "c", "x"},
		"a": {"b", "a"},
		"c": {"b"},
	}
	var got []string
	Find([]string{"c", "b", "a"}, func(v string) []string { return succ[v] }, 0, func(c []string) bool {
		got = append(got, fmt.Sprint(c))
		return true
	})
	want := []string{"[c b]", "[b a]", "[a]"}
	if !slices.Equal(got, want) {
		t.Fatalf("cycles = %v, want %v", got, want)
	}
}

func TestFindStopsWhenVisitReturnsFalse(t *testing.T) {
	// Complete digraph on 6 nodes: hundreds of cycles.
	adj := make([][]int, 6)
	nodes := make([]int, 6)
	for v := range adj {
		nodes[v] = v
		for w := range adj {
			adj[v] = append(adj[v], w)
		}
	}
	calls := 0
	Find(nodes, func(v int) []int { return adj[v] }, 0, func([]int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("visit called %d times after asking to stop at 3", calls)
	}
}

// TestFindWideLayeredDAG pins the cost on acyclic input: in 30 layers
// of 8 nodes, each node linked to every node of the next layer, 8^29
// paths leave each first-layer node, so a search that enumerated paths
// would never return. The last layer feeds a 2-cycle, which is found
// once, and succ is asked once per node.
func TestFindWideLayeredDAG(t *testing.T) {
	const layers, width = 30, 8
	n := layers*width + 2
	loopA, loopB := n-2, n-1
	adj := make([][]int, n)
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			v := l*width + i
			if l == layers-1 {
				adj[v] = []int{loopA}
				continue
			}
			for j := 0; j < width; j++ {
				adj[v] = append(adj[v], (l+1)*width+j)
			}
		}
	}
	adj[loopA], adj[loopB] = []int{loopB}, []int{loopA}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	for _, maxLen := range []int{0, 6} {
		asked := 0
		var got [][]int
		Find(nodes, func(v int) []int { asked++; return adj[v] }, maxLen, func(c []int) bool {
			got = append(got, c)
			return true
		})
		if want := [][]int{{loopA, loopB}}; !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("maxLen %d: cycles = %v, want %v", maxLen, got, want)
		}
		if asked != n {
			t.Fatalf("maxLen %d: succ called %d times for %d nodes", maxLen, asked, n)
		}
	}
}
