package sweep

import "spatialjoin/internal/geom"

// ListSweep is the Plane Sweep Intersection-Test of [BKS 93]: both inputs
// are sorted by the left edge, a vertical sweep line moves left to right,
// and the status of the sweep line — the rectangles currently stabbed by
// it — is kept in a plain list per relation. When a rectangle enters the
// sweep, expired rectangles (right edge left of the sweep) are dropped
// from the other relation's list and the remaining ones are tested for
// y-overlap.
//
// Its runtime on a partition with n rectangles is O(√n·n) under the
// uniform stabbing assumption of §3.2.2, which is why PBSM benefits from
// many small partitions — and why the algorithm degrades when a larger
// memory budget produces fewer, larger partitions (Figure 5).
type ListSweep struct {
	tests   int64
	touches int64
	// stR and stS are the sweep-line status, two list statuses kept
	// between Join calls so that the hundreds of small joins of one
	// partitioned run reuse one pair of backing arrays.
	stR, stS Status
	// keys is the sort's scratch (sortByXL), reused the same way: it grows
	// by doubling to the largest input so far and never shrinks.
	keys []uint64
}

// Name implements Algorithm.
func (a *ListSweep) Name() string { return string(ListKind) }

// Tests implements Algorithm.
func (a *ListSweep) Tests() int64 { return a.tests }

// Touches implements Algorithm: status entries scanned during probes,
// expired ones included — the list must look at every resident entry on
// every probe, which is exactly its weakness on large partitions.
func (a *ListSweep) Touches() int64 { return a.touches }

// Join implements Algorithm.
func (a *ListSweep) Join(rs, ss []geom.KPE, emit Emit) {
	a.keys = sortByXL(rs, a.keys)
	a.keys = sortByXL(ss, a.keys)
	a.sweep(rs, ss, emit)
}

// sweep joins rs and ss, each in sweep order.
func (a *ListSweep) sweep(rs, ss []geom.KPE, emit Emit) {
	a.stR = Status{list: a.stR.list[:0], tests: &a.tests, touches: &a.touches}
	a.stS = Status{list: a.stS.list[:0], tests: &a.tests, touches: &a.touches}
	planeSweep(rs, ss, &a.stR, &a.stS, emit)
}
