package lockorder

import (
	"go/token"
	"sort"
	"strings"

	"cbreak/internal/analysis/load"
)

// This file exports lockorder's collected facts for reuse: the
// conflicts analyzer consumes the same per-function walk (lock
// acquisitions, call sites, memory-cell accesses) and the same
// interprocedural summary fixpoint, but asks a different question of
// the result — not "which acquisition orders cross" but "which cells
// are accessed under inconsistent locksets".

// CellAccess is one static memory-cell access instance: the cell's
// class name, whether it mutates, and the lock classes held around it.
// Accesses reached through calls are expanded interprocedurally: a
// helper's access counts once per calling context, with the caller's
// held locks added (context-insensitive in the callee, like the
// acquisition summaries — a helper locked by every caller still
// contributes its own lock-free instance; suppress such findings with
// a cbvet:ignore directive naming the invariant).
type CellAccess struct {
	// Cell is the cell's class name: the constant NewCell/NewRef name
	// when statically known, the field/variable path otherwise.
	Cell string
	// Write reports whether the access mutates (Store, Add, AtomicAdd,
	// CompareAndSwap).
	Write bool
	// Locks are the lock class names held at the access, sorted.
	Locks []string
	// Pos is the underlying Cell/Ref method call.
	Pos token.Pos
}

// Summary is the shared collection state: feed it units, then read the
// expanded access set. The lockorder and conflicts analyzers each hold
// one as their pass state.
type Summary struct{ st *state }

// NewSummary returns an empty Summary.
func NewSummary() *Summary { return &Summary{st: newState()} }

// Collect folds one loaded unit into the summary.
func (s *Summary) Collect(u *load.Unit) { s.st.collectUnit(u) }

// CellAccesses returns every static access instance, interprocedurally
// expanded and deduplicated, in position order.
func (s *Summary) CellAccesses() []CellAccess { return s.st.cellAccesses() }

// cellClassName resolves a cell refKey to its display name.
func (st *state) cellClassName(ref string) string {
	if n, ok := st.cellBindings[ref]; ok {
		return n
	}
	for _, p := range []string{"field:", "pkgvar:", "local:"} {
		if rest, ok := strings.CutPrefix(ref, p); ok {
			return rest
		}
	}
	return ref
}

// accessTuple is one summarized access: refKey, mutation flag, held
// lock refKeys (sorted set), anchored at the underlying call.
type accessTuple struct {
	ref   string
	write bool
	locks []string
	pos   token.Pos
}

func tupleKey(t accessTuple) string {
	return t.ref + "\x00" + strings.Join(t.locks, "\x01") + map[bool]string{false: "\x02r", true: "\x02w"}[t.write]
}

// cellAccesses runs the access-expansion fixpoint:
//
//	accs(f) = direct(f) ∪ { t+held(call) : call ∈ pending(f), t ∈ accs(callee) }
//
// mirroring the acquisition fixpoint of allEdges, then flattens every
// function's summary into one deduplicated instance list.
func (st *state) cellAccesses() []CellAccess {
	sums := map[*funcInfo]map[string]accessTuple{}
	for _, fi := range st.funcs {
		set := map[string]accessTuple{}
		for _, a := range fi.accesses {
			t := accessTuple{ref: a.ref, write: a.write, locks: sortedSet(a.held), pos: a.pos}
			if prev, ok := set[tupleKey(t)]; !ok || t.pos < prev.pos {
				set[tupleKey(t)] = t
			}
		}
		sums[fi] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range st.funcs {
			set := sums[fi]
			for _, p := range fi.pending {
				for _, t := range sums[st.decls[p.callee]] {
					merged := accessTuple{
						ref:   t.ref,
						write: t.write,
						locks: sortedSet(append(append([]string(nil), t.locks...), p.held...)),
						pos:   t.pos,
					}
					k := tupleKey(merged)
					// Keep the earliest position per tuple (and keep
					// iterating when it improves, so the minimum
					// propagates through call chains deterministically).
					if prev, ok := set[k]; !ok || merged.pos < prev.pos {
						set[k] = merged
						changed = true
					}
				}
			}
		}
	}

	// Deduplicate across functions, keeping the earliest position per
	// tuple so anchors are deterministic (map iteration order must not
	// pick the representative).
	best := map[string]accessTuple{}
	for _, set := range sums {
		for k, t := range set {
			if prev, ok := best[k]; !ok || t.pos < prev.pos {
				best[k] = t
			}
		}
	}
	out := make([]CellAccess, 0, len(best))
	for _, t := range best {
		locks := make([]string, 0, len(t.locks))
		for _, l := range t.locks {
			locks = append(locks, st.className(l))
		}
		sort.Strings(locks)
		out = append(out, CellAccess{
			Cell:  st.cellClassName(t.ref),
			Write: t.write,
			Locks: locks,
			Pos:   t.pos,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		if out[i].Cell != out[j].Cell {
			return out[i].Cell < out[j].Cell
		}
		return !out[i].Write && out[j].Write
	})
	return out
}

// sortedSet sorts and deduplicates a refKey list.
func sortedSet(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	s := append([]string(nil), in...)
	sort.Strings(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
