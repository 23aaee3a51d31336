package sfc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"spatialjoin/internal/geom"
)

func TestZEncodeDecodeRoundTrip(t *testing.T) {
	f := func(ix, iy uint32) bool {
		ix &= (1 << 20) - 1
		iy &= (1 << 20) - 1
		code := Peano.Code(ix, iy, 20)
		gx, gy := ZDecode(code, 20)
		return gx == ix && gy == iy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHilbertRoundTrip(t *testing.T) {
	f := func(ix, iy uint32) bool {
		ix &= (1 << 12) - 1
		iy &= (1 << 12) - 1
		code := Hilbert.Code(ix, iy, 12)
		gx, gy := HilbertXY(code, 12)
		return gx == ix && gy == iy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Both curves must be bijections onto [0, 4^level).
func TestCurvesAreBijections(t *testing.T) {
	const level = 4
	for _, curve := range []Curve{Peano, Hilbert} {
		seen := make(map[uint64]bool)
		n := uint32(1) << level
		for ix := uint32(0); ix < n; ix++ {
			for iy := uint32(0); iy < n; iy++ {
				c := curve.Code(ix, iy, level)
				if c >= uint64(n)*uint64(n) {
					t.Fatalf("%v code %d out of range", curve, c)
				}
				if seen[c] {
					t.Fatalf("%v code %d duplicated", curve, c)
				}
				seen[c] = true
			}
		}
	}
}

// Hilbert neighbors along the curve must be grid neighbors — the
// continuity property that motivated the original S³J choice.
func TestHilbertContinuity(t *testing.T) {
	const level = 6
	n := uint64(1) << (2 * level)
	px, py := HilbertXY(0, level)
	for d := uint64(1); d < n; d++ {
		x, y := HilbertXY(d, level)
		dx := int64(x) - int64(px)
		dy := int64(y) - int64(py)
		if dx*dx+dy*dy != 1 {
			t.Fatalf("Hilbert discontinuity at d=%d: (%d,%d)->(%d,%d)", d, px, py, x, y)
		}
		px, py = x, y
	}
}

// Codes must be hierarchical: a cell's code is its parent's code with two
// more bits — the property CodeInterval and the synchronized scan rely on.
func TestCodesAreHierarchical(t *testing.T) {
	for _, curve := range []Curve{Peano, Hilbert} {
		f := func(ix, iy uint32) bool {
			const level = 10
			ix &= (1 << level) - 1
			iy &= (1 << level) - 1
			child := curve.Code(ix, iy, level)
			parent := curve.Code(ix>>1, iy>>1, level-1)
			return child>>2 == parent
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("%v: %v", curve, err)
		}
	}
}

func TestCellAtClampsBoundary(t *testing.T) {
	for _, level := range []int{0, 1, 5, 10} {
		n := uint32(1) << uint(level)
		ix, iy := CellAt(geom.Point{X: 1, Y: 1}, level)
		if ix != n-1 || iy != n-1 {
			t.Fatalf("level %d: far corner maps to (%d,%d), want (%d,%d)", level, ix, iy, n-1, n-1)
		}
		ix, iy = CellAt(geom.Point{X: 0, Y: 0}, level)
		if ix != 0 || iy != 0 {
			t.Fatalf("level %d: origin maps to (%d,%d)", level, ix, iy)
		}
		ix, iy = CellAt(geom.Point{X: -0.5, Y: 2}, level)
		if ix != 0 || iy != n-1 {
			t.Fatalf("level %d: outside points must clamp", level)
		}
	}
}

func TestCellAtConsistentWithCellRect(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(geom.Point{X: rng.Float64(), Y: rng.Float64()})
			vals[1] = reflect.ValueOf(1 + rng.Intn(12))
		},
	}
	f := func(p geom.Point, level int) bool {
		ix, iy := CellAt(p, level)
		return CellRect(ix, iy, level).Contains(p)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestContainmentLevelCovers(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(randRect(rng))
		},
	}
	f := func(r geom.Rect) bool {
		level, ix, iy := ContainmentLevel(r, MaxLevel)
		lo, hi := geom.Point{X: r.XL, Y: r.YL}, geom.Point{X: r.XH, Y: r.YH}
		if !holdsBoth(ix, iy, level, lo, hi) || !CellRect(ix, iy, level).ContainsRect(r) {
			return false
		}
		// Maximality: no child cell holds both corners (unless at the cap).
		if level == MaxLevel {
			return true
		}
		cx, cy := CellAt(lo, level+1)
		return !holdsBoth(cx, cy, level+1, lo, hi)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSizeLevelDefinition(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(randRect(rng))
		},
	}
	f := func(r geom.Rect) bool {
		const maxLevel = 16
		k := SizeLevel(r, maxLevel)
		if k < 0 || k > maxLevel {
			return false
		}
		size := cellSize(k)
		if r.Width() > size || r.Height() > size {
			return false // the defining inequality must hold
		}
		// Maximality (unless capped).
		if k == maxLevel {
			return true
		}
		smaller := cellSize(k + 1)
		return r.Width() > smaller || r.Height() > smaller
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSizeLevelExact checks the defining inequality and, below
// maxLevel, maximality on the extents where a float rule can slip: every
// power of two 2^−k from the root to past MaxLevel and both float
// neighbours of each, subnormals, extents of 1 and more, and 0.
func TestSizeLevelExact(t *testing.T) {
	var extents []float64
	for k := 0; k <= MaxLevel+2; k++ {
		e := math.Ldexp(1, -k)
		extents = append(extents, math.Nextafter(e, 0), e, math.Nextafter(e, 2))
	}
	extents = append(extents, math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022-0x1p-1074,
		1, 1.5, 2, 1e300, math.MaxFloat64)
	for _, e := range extents {
		for _, r := range []geom.Rect{{XH: e, YH: e / 2}, {XH: e / 4, YH: e}} {
			k := SizeLevel(r, MaxLevel)
			if k < 0 || k > MaxLevel {
				t.Fatalf("SizeLevel(%v) = %d, outside [0, %d]", r, k, MaxLevel)
			}
			if e < 1 && e > math.Ldexp(1, -k) {
				t.Errorf("extent %g at level %d: larger than the cell 2^-%d", e, k, k)
			}
			if e >= 1 && k != 0 {
				t.Errorf("extent %g at level %d, want the root", e, k)
			}
			if k < MaxLevel && e <= math.Ldexp(1, -(k+1)) {
				t.Errorf("extent %g at level %d: it fits level %d too", e, k, k+1)
			}
		}
	}
	if k := SizeLevel(geom.Rect{XL: 0.25, YL: 0.25, XH: 0.25, YH: 0.25}, MaxLevel); k != MaxLevel {
		t.Errorf("a point is at level %d, want %d", k, MaxLevel)
	}
}

// TestSizeLevelOfAnOverflowingExtent: a rectangle with finite corners
// whose width overflows to +Inf is at the root. A level rule built on
// −Log2 turns +Inf into the smallest int and never finishes fixing it up.
func TestSizeLevelOfAnOverflowingExtent(t *testing.T) {
	r := geom.Rect{XL: -math.MaxFloat64, YL: 0.25, XH: math.MaxFloat64, YH: 0.5}
	got := make(chan int, 1)
	go func() { got <- SizeLevel(r, MaxLevel) }()
	select {
	case k := <-got:
		if k != 0 {
			t.Fatalf("SizeLevel(%v) = %d, want 0", r, k)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("SizeLevel(%v) did not return within 5 s", r)
	}
}

func cellSize(level int) float64 {
	return 1 / float64(uint64(1)<<uint(level))
}

func TestSizeLevelExamplesFromPaper(t *testing.T) {
	// Figure 9: a rectangle with both edges ≤ 2^-2 goes to level 2
	// regardless of whether it straddles cell boundaries.
	r := geom.NewRect(0.24, 0.24, 0.26, 0.26) // straddles the level-1 and level-2 lines
	if l := SizeLevel(r, 10); l != 5 {
		// edges are 0.02 ≤ 2^-5 = 0.03125 but > 2^-6
		t.Fatalf("SizeLevel = %d, want 5", l)
	}
	if l, _, _ := ContainmentLevel(r, 10); l != 1 {
		// The original rule sinks it to level 1: it crosses the 0.25 line.
		t.Fatalf("ContainmentLevel = %d, want 1", l)
	}
}

func TestOverlapCellsAtSizeLevelIsAtMostFour(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 5000,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(randRect(rng))
		},
	}
	f := func(r geom.Rect) bool {
		l := SizeLevel(r, 16)
		cells := OverlapCells(r, l, nil)
		if len(cells) == 0 || len(cells) > 4 {
			return false
		}
		// Every returned cell must intersect r.
		for _, c := range cells {
			if !CellRect(c[0], c[1], l).Intersects(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapCellsComplete(t *testing.T) {
	// Brute-force comparison on a coarse grid.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		r := randRect(rng)
		level := 1 + rng.Intn(5)
		got := OverlapCells(r, level, nil)
		gotSet := make(map[[2]uint32]bool, len(got))
		for _, c := range got {
			gotSet[c] = true
		}
		n := uint32(1) << uint(level)
		for ix := uint32(0); ix < n; ix++ {
			for iy := uint32(0); iy < n; iy++ {
				if CellRect(ix, iy, level).Intersects(r) != gotSet[[2]uint32{ix, iy}] {
					t.Fatalf("level %d rect %v: cell (%d,%d) mismatch", level, r, ix, iy)
				}
			}
		}
	}
}

func TestCodeIntervalNesting(t *testing.T) {
	f := func(ix, iy uint32) bool {
		const level = 10
		ix &= (1 << level) - 1
		iy &= (1 << level) - 1
		child := Peano.Code(ix, iy, level)
		parent := child >> 2
		clo, chi := CodeInterval(child, level)
		plo, phi := CodeInterval(parent, level-1)
		return plo <= clo && chi <= phi && clo < chi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCodeIntervalDisjointSiblings(t *testing.T) {
	lo0, hi0 := CodeInterval(0, 1)
	lo1, hi1 := CodeInterval(1, 1)
	if hi0 != lo1 || lo0 >= hi0 || lo1 >= hi1 {
		t.Fatalf("sibling intervals not adjacent-disjoint: [%d,%d) [%d,%d)", lo0, hi0, lo1, hi1)
	}
}

func randRect(rng *rand.Rand) geom.Rect {
	// Mix of tiny and large rectangles to exercise all levels.
	cx, cy := rng.Float64(), rng.Float64()
	e := rng.Float64()
	var w, h float64
	if rng.Intn(2) == 0 {
		w, h = e*e*e*0.5, e*e*e*0.5
	} else {
		w, h = rng.Float64()*0.5, rng.Float64()*0.5
	}
	return geom.NewRect(cx, cy, cx+w, cy+h).ClampUnit()
}

func TestCurveString(t *testing.T) {
	if Peano.String() != "peano" || Hilbert.String() != "hilbert" {
		t.Fatal("curve names changed")
	}
}
