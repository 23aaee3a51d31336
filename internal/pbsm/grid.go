package pbsm

import (
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
)

// grid is an equidistant tiling of the unit data space with nx × ny
// tiles, plus the table mapping tiles to partitions (§3.1). Assigning
// multiple tiles to a partition smooths data skew: a KPE goes into every
// partition owning a tile its rectangle overlaps, which replicates KPEs
// across partitions.
//
// The table is the whole plan, and partOf is one lookup in it. Who fills
// it is the only thing that differs between grids: the [PD 96]
// multiplicative hash, which knows nothing but the tile count (hashTiles:
// PlanGrid and every repartition sub-grid), or the balanced packing of an
// exact tile histogram (PlanGridFor). Partitioner, heal path,
// PartitionSlices and the Reference Point Method's region test all read
// the same table, so they agree whatever it holds.
type grid struct {
	nx, ny int
	parts  int
	assign []int32 // tile id → partition, nx·ny entries, each in [0, parts)
}

// newGrid builds a tiling with at least tiles cells, shaped as square as
// possible, hashed onto parts partitions.
func newGrid(tiles, parts int) *grid {
	if tiles < parts {
		tiles = parts
	}
	nx := 1
	for nx*nx < tiles {
		nx++
	}
	ny := (tiles + nx - 1) / nx
	return &grid{nx: nx, ny: ny, parts: parts, assign: hashTiles(nx*ny, parts)}
}

// hashTiles fills a table with the multiplicative (Fibonacci) hash, the
// mechanism [PD 96] suggests for balancing partitions when NT > P: it
// spreads neighbouring tiles over different partitions and needs no
// knowledge of the data.
func hashTiles(tiles, parts int) []int32 {
	assign := make([]int32, tiles)
	for t := range assign {
		assign[t] = int32(uint64(t) * 0x9E3779B97F4A7C15 % uint64(parts))
	}
	return assign
}

// tileOf returns the tile id containing p, with far-boundary points
// clamped into the last tile — the same convention the Reference Point
// Method test uses, so partitioner and duplicate test always agree.
func (g *grid) tileOf(p geom.Point) int {
	return geom.ClampIdx(p.Y, g.ny)*g.nx + geom.ClampIdx(p.X, g.nx)
}

// partOf maps a tile id to its partition.
func (g *grid) partOf(tile int) int { return int(g.assign[tile]) }

// partition returns the partition owning the point p.
func (g *grid) partition(p geom.Point) int { return g.partOf(g.tileOf(p)) }

// tileRange returns the inclusive tile-coordinate ranges overlapped by r.
func (g *grid) tileRange(r geom.Rect) (x0, x1, y0, y1 int) {
	return geom.ClampIdx(r.XL, g.nx), geom.ClampIdx(r.XH, g.nx),
		geom.ClampIdx(r.YL, g.ny), geom.ClampIdx(r.YH, g.ny)
}

// partitionsOf appends to dst the distinct partitions whose tiles overlap
// r, using stamp (a scratch slice of length g.parts) and gen to
// deduplicate without allocation.
func (g *grid) partitionsOf(r geom.Rect, dst []int, stamp []int, gen int) []int {
	x0, x1, y0, y1 := g.tileRange(r)
	for iy := y0; iy <= y1; iy++ {
		base := iy * g.nx
		for ix := x0; ix <= x1; ix++ {
			p := g.partOf(base + ix)
			if stamp[p] != gen {
				stamp[p] = gen
				dst = append(dst, p)
			}
		}
	}
	return dst
}

// scatter is the one routing loop of the package: it calls visit once
// per copy the partitioner owes, in input order (a record's copies in
// partitionsOf order). The partition phase, the heal path and
// PartitionSlices are all callers, so the exactly-once argument has this
// one function to be read against. chk is polled on its stride; a visit
// error stops the scan.
func (g *grid) scatter(ks []geom.KPE, chk *govern.Check, visit func(part int, k geom.KPE) error) error {
	stamp := make([]int, g.parts)
	for i := range stamp {
		stamp[i] = -1
	}
	parts := make([]int, 0, 8)
	st := chk.Stride()
	for idx := range ks {
		if err := st.Point(); err != nil {
			return err
		}
		parts = g.partitionsOf(ks[idx].Rect, parts[:0], stamp, idx)
		for _, p := range parts {
			if err := visit(p, ks[idx]); err != nil {
				return err
			}
		}
	}
	return nil
}

// region is a predicate over the data space: the set of tiles owned by
// one partition of one grid, possibly intersected with an enclosing
// region after repartitioning. The Reference Point Method reports a
// result pair only when its reference point lies in both the R-side and
// S-side regions of the partition pair being joined (§3.2.1).
type region interface {
	contains(p geom.Point) bool
}

// wholeSpace is the region of an unpartitioned relation (P = 1).
type wholeSpace struct{}

func (wholeSpace) contains(geom.Point) bool { return true }

// gridRegion is the set of tiles g's table gives to partition part.
type gridRegion struct {
	g    *grid
	part int
}

func (r gridRegion) contains(p geom.Point) bool { return r.g.partition(p) == r.part }

// andRegion is the intersection of an outer region with a finer one,
// produced by recursive repartitioning.
type andRegion struct {
	outer, inner region
}

func (r andRegion) contains(p geom.Point) bool {
	return r.outer.contains(p) && r.inner.contains(p)
}
