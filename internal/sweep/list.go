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
	// activeR and activeS are the sweep-line status, kept between Join
	// calls so that the hundreds of small joins of one partitioned run
	// reuse one pair of backing arrays.
	activeR, activeS []geom.KPE
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

// ResetTests implements Algorithm.
func (a *ListSweep) ResetTests() { a.tests, a.touches = 0, 0 }

// Join implements Algorithm.
func (a *ListSweep) Join(rs, ss []geom.KPE, emit Emit) {
	a.keys = sortByXL(rs, a.keys)
	a.keys = sortByXL(ss, a.keys)
	a.sweep(rs, ss, emit)
}

// sweep joins rs and ss, each in sweep order.
func (a *ListSweep) sweep(rs, ss []geom.KPE, emit Emit) {
	activeR, activeS := a.activeR[:0], a.activeS[:0]
	i, j := 0, 0
	for i < len(rs) || j < len(ss) {
		fromR := j >= len(ss) || (i < len(rs) && rs[i].Rect.XL <= ss[j].Rect.XL)
		if fromR {
			r := rs[i]
			i++
			activeS = a.expireAndProbe(activeS, r, emit, false)
			activeR = append(activeR, r)
		} else {
			s := ss[j]
			j++
			activeR = a.expireAndProbe(activeR, s, emit, true)
			activeS = append(activeS, s)
		}
	}
	a.activeR, a.activeS = activeR, activeS
}

// expireAndProbe removes from active every rectangle whose right edge
// lies strictly left of probe's left edge (it can no longer intersect
// anything arriving later), tests the survivors against probe for
// y-overlap, and returns the compacted list. probeIsS tells which side
// probe belongs to so the emit arguments keep (R, S) order.
func (a *ListSweep) expireAndProbe(active []geom.KPE, probe geom.KPE, emit Emit, probeIsS bool) []geom.KPE {
	a.touches += int64(len(active))
	x := probe.Rect.XL
	w := 0
	for i := range active {
		if active[i].Rect.XH < x {
			continue // expired: drop by not copying forward
		}
		active[w] = active[i]
		w++
		a.tests++
		if active[i].Rect.IntersectsY(probe.Rect) {
			if probeIsS {
				emit(active[i], probe)
			} else {
				emit(probe, active[i])
			}
		}
	}
	return active[:w]
}
