package sfc

import (
	"math"
	"slices"
	"testing"

	"spatialjoin/internal/geom"
)

// FuzzLevelAssignments checks the structural invariants of both level
// rules for any finite rectangle, in the data space or far outside it:
// the containment cell holds both corners and is the deepest cell that
// does, the size level is the largest that satisfies its defining
// inequality exactly, and the replicated cell set holds both corners'
// cells within the paper's bound of four.
func FuzzLevelAssignments(f *testing.F) {
	f.Add(0.1, 0.1, 0.2, 0.2)
	f.Add(0.0, 0.0, 1.0, 1.0)
	f.Add(0.49999, 0.49999, 0.50001, 0.50001) // straddles the root split
	f.Add(0.25, 0.25, 0.25, 0.25)             // degenerate on a boundary
	f.Add(0.0, 0.3, 0.1, 0.5)                 // high edge on the root seam
	f.Add(4194303.9999, 0.5, 4194304.0, 0.5)  // v·2^10 past the uint32 range
	f.Add(-1e300, -1e300, 1e300, 1e300)
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2 float64) {
		r := geom.NewRect(x1, y1, x2, y2)
		if !r.Valid() {
			t.Skip()
		}
		lo, hi := geom.Point{X: r.XL, Y: r.YL}, geom.Point{X: r.XH, Y: r.YH}
		level, ix, iy := ContainmentLevel(r, MaxLevel)
		if !holdsBoth(ix, iy, level, lo, hi) {
			t.Fatalf("containment cell (%d,%d)@%d does not hold both corners of %v", ix, iy, level, r)
		}
		if level < MaxLevel {
			cx, cy := CellAt(lo, level+1)
			if holdsBoth(cx, cy, level+1, lo, hi) {
				t.Fatalf("containment level %d is not the deepest for %v: (%d,%d)@%d holds both corners",
					level, r, cx, cy, level+1)
			}
		}
		k := SizeLevel(r, MaxLevel)
		if e := max(r.Width(), r.Height()); !math.IsInf(e, 0) {
			if e > math.Ldexp(1, -k) && k > 0 {
				t.Fatalf("size level %d violates the defining inequality for %v", k, r)
			}
			if k < MaxLevel && e <= math.Ldexp(1, -(k+1)) {
				t.Fatalf("size level %d is not the largest for %v: level %d fits too", k, r, k+1)
			}
		}
		cells := OverlapCells(r, k, nil)
		if len(cells) == 0 || len(cells) > 4 {
			t.Fatalf("replication bound violated: %d cells for %v at level %d",
				len(cells), r, k)
		}
		for _, p := range []geom.Point{lo, hi} {
			cx, cy := CellAt(p, k)
			if !slices.Contains(cells, [2]uint32{cx, cy}) {
				t.Fatalf("OverlapCells(%v)@%d = %v lacks corner %v's cell (%d,%d)", r, k, cells, p, cx, cy)
			}
		}
	})
}

// holdsBoth reports whether CellAt puts both points in cell (ix, iy) at
// the given level.
func holdsBoth(ix, iy uint32, level int, p, q geom.Point) bool {
	px, py := CellAt(p, level)
	qx, qy := CellAt(q, level)
	return px == ix && py == iy && qx == ix && qy == iy
}

// FuzzCurveRoundTrip checks both curves stay bijective on arbitrary
// coordinates at every level.
func FuzzCurveRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), 1)
	f.Add(uint32(1023), uint32(511), 10)
	f.Fuzz(func(t *testing.T, ix, iy uint32, level int) {
		if level < 1 || level > 20 {
			t.Skip()
		}
		mask := uint32(1)<<uint(level) - 1
		ix &= mask
		iy &= mask
		if gx, gy := ZDecode(Peano.Code(ix, iy, level), level); gx != ix || gy != iy {
			t.Fatalf("peano roundtrip failed for (%d,%d)@%d", ix, iy, level)
		}
		if gx, gy := HilbertXY(Hilbert.Code(ix, iy, level), level); gx != ix || gy != iy {
			t.Fatalf("hilbert roundtrip failed for (%d,%d)@%d", ix, iy, level)
		}
	})
}
