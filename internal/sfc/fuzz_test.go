package sfc

import (
	"math"
	"testing"

	"spatialjoin/internal/geom"
)

// FuzzLevelAssignments checks the structural invariants of both level
// rules for arbitrary rectangles: the containment cell really covers the
// rectangle, the size level is the largest that satisfies its defining
// inequality exactly, and the replicated cell set stays within the
// paper's bound of four.
func FuzzLevelAssignments(f *testing.F) {
	f.Add(0.1, 0.1, 0.2, 0.2)
	f.Add(0.0, 0.0, 1.0, 1.0)
	f.Add(0.49999, 0.49999, 0.50001, 0.50001) // straddles the root split
	f.Add(0.25, 0.25, 0.25, 0.25)             // degenerate on a boundary
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2 float64) {
		r := geom.NewRect(x1, y1, x2, y2).ClampUnit()
		if !r.Valid() {
			t.Skip()
		}
		level, ix, iy := ContainmentLevel(r, MaxLevel)
		if !CellCovers(ix, iy, level, r) {
			t.Fatalf("containment cell (%d,%d)@%d does not cover %v", ix, iy, level, r)
		}
		k := SizeLevel(r, MaxLevel)
		e := max(r.Width(), r.Height())
		if e > math.Ldexp(1, -k) {
			t.Fatalf("size level %d violates the defining inequality for %v", k, r)
		}
		if k < MaxLevel && e <= math.Ldexp(1, -(k+1)) {
			t.Fatalf("size level %d is not the largest for %v: level %d fits too", k, r, k+1)
		}
		cells := OverlapCells(r, k, nil)
		if len(cells) == 0 || len(cells) > 4 {
			t.Fatalf("replication bound violated: %d cells for %v at level %d",
				len(cells), r, k)
		}
	})
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
