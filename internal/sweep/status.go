package sweep

import (
	"fmt"

	"spatialjoin/internal/geom"
)

// Status is the sweep-line status of one relation: the rectangles the
// sweep line currently stabs. Rectangles enter in ascending order of their
// left edges, and each probe lazily expires the ones the sweep line has
// passed. It has one of two organizations, and they are the only thing in
// which the list sweep of [BKS 93] and the trie sweep of §3.2.2 differ: a
// plain list of the residents, or an interval trie over their y-ranges.
// ListSweep and TrieSweep run on it in memory, SSSJ (package sssj) in its
// streaming sweep.
type Status struct {
	// list holds the residents of the list organization.
	list []geom.KPE
	// root is the interval trie's root; nil selects the list.
	root *trieNode
	// bits is the trie depth, and ymin and inv normalize a y-coordinate
	// to its key in [0, 2^bits).
	bits      int
	ymin, inv float64
	// n counts the trie's residents.
	n int
	// tests receives the candidate tests, touches the status nodes
	// touched (see Algorithm.Touches).
	tests, touches *int64
}

// NewStatus creates a sweep status of the given kind. ymin/ymax bound the
// y-keys for the trie (pass 0 and 1 for the unit data space); tests and
// touches receive the status's counts (see Algorithm). The nested-loops
// kind has no status structure and maps to the list, and so does "". Like
// New, NewStatus panics on a kind that is not Valid.
func NewStatus(kind Kind, ymin, ymax float64, tests, touches *int64) *Status {
	if !kind.Valid() {
		panic(fmt.Sprintf("sweep: unknown kind %q", kind))
	}
	if kind == TrieKind && ymax > ymin {
		return newTrieStatus(ymin, ymax, 0, tests, touches)
	}
	// A degenerate y-extent scales every key to 0 (see newTrieStatus),
	// collapsing the whole trie onto one spine: an O(n) scan per probe
	// with trie-node overhead on top, strictly worse than the plain list.
	return &Status{tests: tests, touches: touches}
}

// newTrieStatus builds a trie status over y-extent [ymin, ymax]; depth 0
// selects DefaultTrieDepth. When ymax <= ymin the inverse scale stays 0
// and every key is 0: all intervals land on one spine and probes
// degenerate to a linear scan of all residents. NewStatus guards the
// extent; this constructor keeps the degenerate arithmetic well-defined
// rather than dividing by zero.
func newTrieStatus(ymin, ymax float64, depth int, tests, touches *int64) *Status {
	if depth <= 0 {
		depth = DefaultTrieDepth
	}
	st := &Status{root: &trieNode{}, bits: depth, ymin: ymin, tests: tests, touches: touches}
	if ymax > ymin {
		st.inv = st.limit() / (ymax - ymin)
	}
	return st
}

// Len returns the number of resident rectangles (expired entries not yet
// removed by a probe still count — they still occupy memory).
func (st *Status) Len() int {
	if st.root == nil {
		return len(st.list)
	}
	return st.n
}

// Insert adds a rectangle to the status.
func (st *Status) Insert(k geom.KPE) {
	if st.root == nil {
		st.list = append(st.list, k)
		return
	}
	st.insert(k)
	st.n++
}

// Probe expires every resident whose right edge lies strictly left of
// probe's left edge, then reports each remaining one whose y-range
// overlaps probe's through emit, in (R, S) order: probeIsS tells which
// relation probe belongs to.
func (st *Status) Probe(probe geom.KPE, probeIsS bool, emit Emit) {
	if st.root == nil {
		*st.touches += int64(len(st.list))
		st.list = st.scan(st.list, probe, probeIsS, emit)
		return
	}
	st.walk(st.root, st.bits, 0, st.key(probe.Rect.YL), st.key(probe.Rect.YH), probe, probeIsS, emit)
}

// scan is the sweep's one expire-and-probe step, the list's whole probe
// and a trie node's visit: it drops from items every rectangle whose right
// edge lies strictly left of probe's left edge (it can no longer intersect
// anything arriving later), tests the survivors against probe for
// y-overlap and returns the compacted items.
func (st *Status) scan(items []geom.KPE, probe geom.KPE, probeIsS bool, emit Emit) []geom.KPE {
	x := probe.Rect.XL
	w := 0
	for i := range items {
		if items[i].Rect.XH < x {
			continue // expired: drop by not copying forward
		}
		items[w] = items[i]
		w++
		if items[i].Rect.IntersectsY(probe.Rect) {
			if probeIsS {
				emit(items[i], probe)
			} else {
				emit(probe, items[i])
			}
		}
	}
	*st.tests += int64(w)
	return items[:w]
}

// planeSweep joins rs and ss, each in sweep order, through the statuses
// stR and stS: a merge by left edge, R first on equal edges, in which
// every rectangle probes the other relation's status and then enters its
// own.
func planeSweep(rs, ss []geom.KPE, stR, stS *Status, emit Emit) {
	i, j := 0, 0
	for i < len(rs) || j < len(ss) {
		if j >= len(ss) || (i < len(rs) && rs[i].Rect.XL <= ss[j].Rect.XL) {
			stS.Probe(rs[i], false, emit)
			stR.Insert(rs[i])
			i++
		} else {
			stR.Probe(ss[j], true, emit)
			stS.Insert(ss[j])
			j++
		}
	}
}
