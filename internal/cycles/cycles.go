// Package cycles finds the elementary cycles of a directed graph. It is
// the tree's one cycle search: the wait-graph supervisor's live
// wait-for cycles, cbvet's static lock-order cycles, the lock-order
// detector's chains and replay's dependency check all call it, each
// with its own node type, length bound and deduplication.
package cycles

import (
	"slices"
)

// Find calls visit with every elementary cycle of the digraph whose
// nodes are nodes and whose arcs run from each node v to every node of
// succ(v), until visit returns false. visit owns the slice it is given.
//
// Each cycle comes once, self-loops included, as the path of its nodes
// starting at its least node, where the position in nodes gives the
// order. Cycles come in lexicographic order of those paths. maxLen > 0
// leaves out cycles of more than maxLen nodes. Successors that are not
// in nodes are ignored, as are repeated successors.
//
// The search is Gupta and Suzumura's length-bounded form of Johnson's
// algorithm, run from each node in turn inside its strongly connected
// component. On an acyclic graph it sorts each successor list and then
// visits each node and arc once. With c cycles of at most k nodes it
// costs O((c+n)·k·(n+e)), so a caller that stops at the first cycle
// pays polynomial time for it.
func Find[N comparable](nodes []N, succ func(N) []N, maxLen int, visit func(cycle []N) bool) {
	index := make(map[N]int, len(nodes))
	for i, v := range nodes {
		index[v] = i
	}
	adj := make([][]int, len(nodes))
	for i, v := range nodes {
		for _, w := range succ(v) {
			if j, ok := index[w]; ok {
				adj[i] = append(adj[i], j)
			}
		}
		slices.Sort(adj[i])
		adj[i] = slices.Compact(adj[i])
	}
	if maxLen <= 0 || maxLen > len(nodes) {
		maxLen = len(nodes)
	}
	s := &search{
		adj:    adj,
		comp:   components(adj),
		bound:  maxLen,
		lock:   make([]int, len(nodes)),
		blist:  make([][]int, len(nodes)),
		onPath: make([]bool, len(nodes)),
		visit: func(path []int) bool {
			cycle := make([]N, len(path))
			for i, v := range path {
				cycle[i] = nodes[v]
			}
			return visit(cycle)
		},
	}
	for v := range s.lock {
		s.lock[v] = s.bound
	}
	for s.start = range nodes {
		s.walk(s.start)
		for _, v := range s.touched {
			s.lock[v] = s.bound
			s.blist[v] = s.blist[v][:0]
		}
		s.touched = s.touched[:0]
		if s.stopped {
			return
		}
	}
}

// search is the state of the cycle search from one start node: it
// looks only at nodes above the start in the start's component, so each
// cycle is found from its least node alone.
type search struct {
	adj   [][]int
	comp  []int
	bound int // most nodes in a reported cycle
	visit func(path []int) bool

	start   int
	path    []int
	onPath  []bool
	lock    []int   // v may join the path only at depths below lock[v]
	blist   [][]int // blist[w]: nodes whose walks failed with an arc to w
	touched []int   // nodes whose lock or blist this start set, to reset
	stopped bool
}

// walk puts v on the path at depth len(path), reports the cycles that
// extend the path back to the start, and returns whether it found one.
func (s *search) walk(v int) (found bool) {
	depth := len(s.path)
	s.lock[v] = depth + 1
	s.path = append(s.path, v)
	s.onPath[v] = true
	s.touched = append(s.touched, v)
	for _, w := range s.adj[v] {
		if s.stopped {
			break
		}
		switch {
		case w == s.start:
			if !s.visit(s.path) {
				s.stopped = true
			}
			found = true
		case s.eligible(w) && depth+1 < s.lock[w]:
			found = s.walk(w) || found
		}
	}
	if found {
		s.relax(v, 1)
	} else {
		for _, w := range s.adj[v] {
			if s.eligible(w) {
				if len(s.blist[w]) == 0 {
					s.touched = append(s.touched, w)
				}
				s.blist[w] = append(s.blist[w], v)
			}
		}
	}
	s.path = s.path[:depth]
	s.onPath[v] = false
	return found
}

// eligible reports whether w may join a path from the current start.
func (s *search) eligible(w int) bool {
	return w > s.start && s.comp[w] == s.comp[s.start]
}

// relax records that u reaches the start in at least dist arcs, so u
// may join a path again at any depth that leaves room for a cycle
// within the bound, and passes that on to the walks that failed
// through u, one arc further away.
func (s *search) relax(u, dist int) {
	if l := s.bound - dist + 1; s.lock[u] < l {
		s.lock[u] = l
		for _, w := range s.blist[u] {
			if !s.onPath[w] {
				s.relax(w, dist+1)
			}
		}
	}
}

// components labels each node with its strongly connected component
// (Tarjan's algorithm).
func components(adj [][]int) []int {
	comp := make([]int, len(adj))
	order := make([]int, len(adj)) // discovery order, from 1; 0 = unvisited
	low := make([]int, len(adj))
	onStack := make([]bool, len(adj))
	var stack []int
	seen, ncomp := 0, 0
	var connect func(v int)
	connect = func(v int) {
		seen++
		order[v], low[v] = seen, seen
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if order[w] == 0 {
				connect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], order[w])
			}
		}
		if low[v] != order[v] {
			return
		}
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			comp[w] = ncomp
			if w == v {
				break
			}
		}
		ncomp++
	}
	for v := range adj {
		if order[v] == 0 {
			connect(v)
		}
	}
	return comp
}
