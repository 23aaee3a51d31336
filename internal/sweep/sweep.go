// Package sweep implements the internal (main-memory) spatial join
// algorithms of the paper: simple nested loops, the list-based Plane
// Sweep Intersection-Test of Brinkhoff, Kriegel & Seeger [BKS 93] used by
// the original PBSM, and the trie-based plane sweep of §3.2.2 whose
// sweep-line status is an interval trie.
//
// All algorithms compute the set of intersecting pairs (r, s), r ∈ R,
// s ∈ S, and report each pair exactly once through the emit callback.
// They are the pluggable building block of both PBSM's join phase and
// S³J's partition joins, and the direct subject of the paper's Figure 4,
// Figure 5 and Figure 12 experiments.
package sweep

import (
	"cmp"
	"slices"

	"spatialjoin/internal/geom"
)

// Emit receives one intersecting result pair.
type Emit func(r, s geom.KPE)

// Algorithm is an in-memory spatial intersection join. Join may reorder
// the input slices (the plane sweeps sort by the rectangles' left edges)
// but never adds or removes elements.
type Algorithm interface {
	Name() string
	// Join reports every intersecting pair between rs and ss.
	Join(rs, ss []geom.KPE, emit Emit)
	// Tests returns the cumulative number of candidate tests performed
	// across all Join calls, a machine-independent CPU proxy.
	Tests() int64
	// Touches returns the cumulative number of status-structure node
	// touches across all Join calls: list entries scanned for the list
	// sweep, trie nodes visited for the trie sweep. Where Tests counts
	// only y-overlap comparisons, Touches exposes the traversal work the
	// status organization itself causes — the quantity behind the
	// trie-vs-list crossover of §3.2.2.
	Touches() int64
	// ResetTests zeroes the test and touch counters.
	ResetTests()
}

// Kind names an internal algorithm for configuration surfaces.
type Kind string

const (
	// NestedLoopsKind selects the quadratic nested-loops join.
	NestedLoopsKind Kind = "nested"
	// ListKind selects the list-based Plane Sweep Intersection-Test.
	ListKind Kind = "list"
	// TrieKind selects the interval-trie plane sweep.
	TrieKind Kind = "trie"
)

// New returns a fresh Algorithm of the given kind. Unknown kinds yield
// the list sweep, the original PBSM default.
func New(k Kind) Algorithm {
	switch k {
	case NestedLoopsKind:
		return &NestedLoops{}
	case TrieKind:
		return &TrieSweep{}
	default:
		return &ListSweep{}
	}
}

// NestedLoops tests every pair. It is only competitive for the very small
// partitions produced by S³J (§4.4.1, Figure 12).
type NestedLoops struct {
	tests int64
}

// Name implements Algorithm.
func (a *NestedLoops) Name() string { return string(NestedLoopsKind) }

// Tests implements Algorithm.
func (a *NestedLoops) Tests() int64 { return a.tests }

// Touches implements Algorithm. Nested loops has no status structure;
// every candidate test is exactly one touch.
func (a *NestedLoops) Touches() int64 { return a.tests }

// ResetTests implements Algorithm.
func (a *NestedLoops) ResetTests() { a.tests = 0 }

// Join implements Algorithm.
func (a *NestedLoops) Join(rs, ss []geom.KPE, emit Emit) {
	for i := range rs {
		r := rs[i].Rect
		for j := range ss {
			a.tests++
			if r.Intersects(ss[j].Rect) {
				emit(rs[i], ss[j])
			}
		}
	}
}

// sortByXL orders a slice of KPEs by the left edge of their rectangles,
// the sweep order of both plane-sweep algorithms.
func sortByXL(ks []geom.KPE) {
	slices.SortFunc(ks, func(a, b geom.KPE) int { return cmp.Compare(a.Rect.XL, b.Rect.XL) })
}
