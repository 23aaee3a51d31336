package pbsm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spatialjoin/internal/geom"
)

func TestNewGridShape(t *testing.T) {
	cases := []struct {
		tiles, parts int
		minTiles     int
	}{
		{16, 4, 16},
		{17, 4, 17},
		{1, 5, 5}, // tiles raised to parts
		{100, 10, 100},
	}
	for _, c := range cases {
		g := newGrid(c.tiles, c.parts)
		if g.nx*g.ny < c.minTiles {
			t.Errorf("newGrid(%d,%d): %dx%d < %d tiles", c.tiles, c.parts, g.nx, g.ny, c.minTiles)
		}
		if g.parts != c.parts {
			t.Errorf("parts changed: %d", g.parts)
		}
	}
}

func TestClampIdx(t *testing.T) {
	cases := []struct {
		v    float64
		n    int
		want int
	}{
		{0, 10, 0},
		{-0.5, 10, 0},
		{0.05, 10, 0},
		{0.95, 10, 9},
		{1.0, 10, 9}, // far boundary clamps into the last cell
		{2.0, 10, 9},
		{0.5, 10, 5},
		// Total: the index goes straight into the tile→partition table and
		// the planner's histogram, so no float may leave [0, n) — not a
		// finite one whose product with n overflows every int, not an
		// infinity, not NaN.
		{math.Nextafter(1, 0), 10, 9},
		{1e19, 10, 9},
		{1e300, 10, 9},
		{1e300, 1 << 20, 1<<20 - 1},
		{math.MaxFloat64, 1, 0},
		{math.Inf(1), 10, 9},
		{-1e300, 10, 0},
		{math.Inf(-1), 10, 0},
		{math.NaN(), 10, 0},
	}
	for _, c := range cases {
		if got := geom.ClampIdx(c.v, c.n); got != c.want {
			t.Errorf("geom.ClampIdx(%g,%d) = %d, want %d", c.v, c.n, got, c.want)
		}
	}
}

func TestTileOfPartitionConsistency(t *testing.T) {
	// The invariant RPM rests on: the partition that receives a copy of a
	// rectangle containing point p always includes p in its region.
	f := func(seed int64, tiles, parts uint8) bool {
		g := newGrid(int(tiles)%30+1, int(parts)%10+1)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			part := g.partition(p)
			if part < 0 || part >= g.parts {
				return false
			}
			// A degenerate rectangle at p must be assigned to the
			// partition owning p.
			r := geom.Rect{XL: p.X, YL: p.Y, XH: p.X, YH: p.Y}
			stamp := make([]int, g.parts)
			for j := range stamp {
				stamp[j] = -1
			}
			got := g.partitionsOf(r, nil, stamp, 0)
			found := false
			for _, pi := range got {
				if pi == part {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionsOfCoversAllOverlappingTiles(t *testing.T) {
	g := newGrid(16, 4)
	r := geom.NewRect(0.1, 0.1, 0.6, 0.6)
	stamp := []int{-1, -1, -1, -1}
	got := g.partitionsOf(r, nil, stamp, 0)
	want := make(map[int]bool)
	for iy := 0; iy < g.ny; iy++ {
		for ix := 0; ix < g.nx; ix++ {
			cell := geom.Rect{
				XL: float64(ix) / float64(g.nx), YL: float64(iy) / float64(g.ny),
				XH: float64(ix+1) / float64(g.nx), YH: float64(iy+1) / float64(g.ny),
			}
			if cell.Intersects(r) {
				want[g.partOf(iy*g.nx+ix)] = true
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d partitions, want %d", len(got), len(want))
	}
	for _, pi := range got {
		if !want[pi] {
			t.Fatalf("unexpected partition %d", pi)
		}
	}
}

func TestPartitionsOfDeduplicates(t *testing.T) {
	// A rectangle spanning many tiles of the same partition must be
	// listed once.
	g := newGrid(64, 2)
	r := geom.NewRect(0, 0, 1, 1) // all tiles
	stamp := []int{-1, -1}
	got := g.partitionsOf(r, nil, stamp, 7)
	if len(got) != 2 {
		t.Fatalf("expected both partitions exactly once, got %v", got)
	}
	if got[0] == got[1] {
		t.Fatal("duplicate partition in result")
	}
}

func TestHashBalance(t *testing.T) {
	// The multiplicative tile hash must spread tiles roughly evenly.
	g := newGrid(1024, 16)
	counts := make([]int, g.parts)
	for tile := 0; tile < g.nx*g.ny; tile++ {
		counts[g.partOf(tile)]++
	}
	total := g.nx * g.ny
	mean := float64(total) / float64(g.parts)
	for pi, c := range counts {
		if float64(c) < mean*0.5 || float64(c) > mean*1.5 {
			t.Errorf("partition %d owns %d tiles, mean %.1f — hash badly skewed", pi, c, mean)
		}
	}
}

func TestRegionSemantics(t *testing.T) {
	g := newGrid(16, 4)
	p := geom.Point{X: 0.3, Y: 0.7}
	owner := g.partition(p)
	for part := 0; part < g.parts; part++ {
		reg := gridRegion{g: g, part: part}
		if reg.contains(p) != (part == owner) {
			t.Fatalf("region %d contains(%v) inconsistent with partition()", part, p)
		}
	}
	if !(wholeSpace{}).contains(p) {
		t.Fatal("wholeSpace must contain everything")
	}
	sub := newGrid(64, 8)
	and := andRegion{gridRegion{g, owner}, gridRegion{sub, sub.partition(p)}}
	if !and.contains(p) {
		t.Fatal("andRegion must contain the point both parts contain")
	}
	other := (sub.partition(p) + 1) % sub.parts
	and = andRegion{gridRegion{g, owner}, gridRegion{sub, other}}
	if and.contains(p) {
		t.Fatal("andRegion must reject when the inner region rejects")
	}
}

// Exactly-one-partition property for points: the foundation of RPM.
func TestEveryPointHasExactlyOneOwner(t *testing.T) {
	f := func(x, y float64, tiles, parts uint8) bool {
		// Map arbitrary floats into [0,1].
		fx := x - float64(int64(x))
		if fx < 0 {
			fx += 1
		}
		fy := y - float64(int64(y))
		if fy < 0 {
			fy += 1
		}
		g := newGrid(int(tiles)%40+1, int(parts)%12+1)
		owners := 0
		p := geom.Point{X: fx, Y: fy}
		for part := 0; part < g.parts; part++ {
			if (gridRegion{g, part}).contains(p) {
				owners++
			}
		}
		return owners == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestEveryPointInDomainHasExactlyOneOwner is the property above where it
// matters: points spread over the data space, every tile seam i/n, 0 and 1
// included, and the out-of-domain corners, under a hashed table and under
// an arbitrary one.
func TestEveryPointInDomainHasExactlyOneOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(179))
	for trial := 0; trial < 200; trial++ {
		g := newGrid(rng.Intn(40)+1, rng.Intn(12)+1)
		if trial%2 == 1 {
			for tile := range g.assign {
				g.assign[tile] = int32(rng.Intn(g.parts))
			}
		}
		xs, ys := []float64{-1e300, 1e300}, []float64{-1e300, 1e300}
		for i := 0; i < g.nx; i++ { // each column's left seam and a point inside it
			xs = append(xs, float64(i)/float64(g.nx), (float64(i)+0.01+0.98*rng.Float64())/float64(g.nx))
		}
		for i := 0; i < g.ny; i++ {
			ys = append(ys, float64(i)/float64(g.ny), (float64(i)+0.01+0.98*rng.Float64())/float64(g.ny))
		}
		xs, ys = append(xs, 1), append(ys, 1)
		tilesHit := make(map[int]bool)
		for _, x := range xs {
			for _, y := range ys {
				p := geom.Point{X: x, Y: y}
				tilesHit[g.tileOf(p)] = true
				owners := 0
				for part := 0; part < g.parts; part++ {
					if (gridRegion{g, part}).contains(p) {
						owners++
					}
				}
				if owners != 1 {
					t.Fatalf("%dx%d grid, %d parts: point %v has %d owners", g.nx, g.ny, g.parts, p, owners)
				}
			}
		}
		if len(tilesHit) != g.nx*g.ny {
			t.Fatalf("%dx%d grid: the points reached %d tiles", g.nx, g.ny, len(tilesHit))
		}
	}
}

// TestBoundaryAgreementRPM pins the classic seam: a reference point
// landing EXACTLY on a shared tile edge (coordinates hitting i/nx with
// no rounding slack, plus the far boundary at 1.0). The partitioner
// (tileRange) and the duplicate test (gridRegion.contains) must place
// such a point consistently: exactly one partition's region contains
// it, and that partition received copies of any rectangle pair whose
// reference point it is.
func TestBoundaryAgreementRPM(t *testing.T) {
	g := newGrid(16, 5) // 4×4 tiles hashed onto 5 partitions
	edgeXs := []float64{0, 0.25, 0.5, 0.75, 1.0}
	edgeYs := []float64{0, 0.25, 0.5, 0.75, 1.0}
	stamp := make([]int, g.parts)
	gen := 0
	for _, ex := range edgeXs {
		for _, ey := range edgeYs {
			// Build a rectangle pair whose RefPoint is exactly (ex, ey):
			// r supplies the max left edge, s supplies the min top edge.
			r := geom.NewRect(ex, maxf(ey-0.3, 0), minf(ex+0.3, 1), 1)
			s := geom.NewRect(maxf(ex-0.3, 0), maxf(ey-0.3, 0), minf(ex+0.3, 1), ey)
			x := geom.RefPoint(r, s)
			if x.X != ex || x.Y != ey {
				t.Fatalf("setup: RefPoint = %v, want (%g, %g)", x, ex, ey)
			}
			owners := 0
			for part := 0; part < g.parts; part++ {
				if !(gridRegion{g, part}).contains(x) {
					continue
				}
				owners++
				// The owning partition must hold copies of BOTH rects,
				// or the pair the reference point credits to it could
				// never be produced there.
				for _, rect := range []geom.Rect{r, s} {
					for i := range stamp {
						stamp[i] = -1
					}
					gen++
					found := false
					for _, p := range g.partitionsOf(rect, nil, stamp, gen) {
						if p == part {
							found = true
						}
					}
					if !found {
						t.Fatalf("refpoint (%g,%g): owner %d lacks a copy of %v",
							ex, ey, part, rect)
					}
				}
			}
			if owners != 1 {
				t.Fatalf("refpoint exactly on edge (%g,%g) owned by %d partitions, want 1", ex, ey, owners)
			}
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
