package pbsm

import (
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
)

// Two-Layer Space-oriented Partitioning (TLSP): the third answer to the
// duplicate question, alongside the original sort phase and the paper's
// Reference Point Method. Replication itself is unchanged — a KPE is
// still copied into every tile its rectangle overlaps — but each COPY is
// tagged with a two-bit secondary class recording, per axis, whether the
// destination tile also contains the rectangle's REFERENCE CORNER: the
// corner geom.RefPoint is built from, i.e. the upper-left (xl, yh) per
// §3.2.1 of the paper. (Sedona's DuplicatesFilter keys the same scheme
// to the bottom-left; the corner choice is free as long as partitioner
// and duplicate test use the SAME one — geom.ClampIdx's half-open tile
// extents put a corner on a shared edge into exactly one tile.)
//
//	class A (00): the tile contains the reference corner on both axes
//	class B (01): corner column elsewhere (tile is right of the corner)
//	class C (10): corner row elsewhere (tile is below the corner)
//	class D (11): both elsewhere
//
// The join phase then emits a candidate (r, s) iff r.Class & s.Class ==
// 0. Why that is exact: the reference point is (max(r.xl, s.xl),
// min(r.yh, s.yh)), and ClampIdx is monotone, so its tile coordinates
// are (max(cxr, cxs), min(cyr, cys)) where (cx, cy) are the corner-tile
// coordinates of each rectangle. A tile (ix, iy) holding copies of both
// rectangles has ix ≥ max(cxr, cxs) and iy ≤ min(cyr, cys) (a copy only
// exists in columns at or past its left edge and rows at or below its
// top edge), and the class-AND is zero exactly when ix ≤ max(cxr, cxs)
// and iy ≥ min(cyr, cys) — i.e. precisely in the reference point's tile.
// Every intersecting pair shares that tile (the reference point lies in
// both rectangles), so each result is emitted exactly once, by the same
// tile RPM would have credited it to — identical result set, no region
// lookup on the fast path (the reference point itself is still computed:
// the pair kernel of package stripe asks it which stripe reports), and
// class pairs with a shared set bit are skipped outright (counted in
// Stats.TLSPSkipped).
//
// Classes are a per-tile property, so a TLSP grid's tiles are its
// partitions (newTLSPGrid). Its output is duplicate-free by construction,
// which lets the shard layer accept TLSP as it accepts RPM (DESIGN.md §15).

// TLSP class bits: set when the copy's tile does NOT contain the
// rectangle's reference corner (upper-left, the RefPoint corner) on
// that axis.
const (
	classXOut uint8 = 1 // corner column (geom.ClampIdx(xl)) is elsewhere
	classYOut uint8 = 2 // corner row (geom.ClampIdx(yh)) is elsewhere
)

// newTLSPGrid builds a TLSP tiling with at least p partitions, shaped as
// square as possible. Tiles ARE partitions (parts = nx × ny ≥ p), so the
// partition count may round up past formula (1)'s p — each pair still
// fits the memory budget, there are just more of them.
func newTLSPGrid(p int) *grid {
	if p < 1 {
		p = 1
	}
	nx := 1
	for nx*nx < p {
		nx++
	}
	ny := (p + nx - 1) / nx
	return &grid{nx: nx, ny: ny, parts: nx * ny, assign: identityTiles(nx * ny), tlsp: true}
}

// copyDest names one replicated destination of a KPE: the partition the
// copy is written to and, under TLSP, the copy's secondary class.
type copyDest struct {
	part  int
	class uint8
}

// copiesOf appends to dst one entry per copy of r the partitioner must
// write. For an RPM grid this is partitionsOf with class 0 on every
// copy (stamp/gen deduplicate partitions owning several overlapped
// tiles); for a TLSP grid it is one classed copy per overlapped tile,
// no dedup needed because tiles map 1:1 to partitions.
func (g *grid) copiesOf(r geom.Rect, dst []copyDest, stamp []int, gen int) []copyDest {
	x0, x1, y0, y1 := g.tileRange(r)
	if g.tlsp {
		// The reference corner (xl, yh) sits in tile (x0, y1): geom.ClampIdx
		// of XL/YH are exactly the range's first column and last row, so
		// the class bits reduce to "is this that column/row".
		for iy := y0; iy <= y1; iy++ {
			base := iy * g.nx
			class0 := uint8(0)
			if iy != y1 {
				class0 = classYOut
			}
			for ix := x0; ix <= x1; ix++ {
				class := class0
				if ix != x0 {
					class |= classXOut
				}
				dst = append(dst, copyDest{part: base + ix, class: class})
			}
		}
		return dst
	}
	for iy := y0; iy <= y1; iy++ {
		base := iy * g.nx
		for ix := x0; ix <= x1; ix++ {
			p := g.partOf(base + ix)
			if stamp[p] != gen {
				stamp[p] = gen
				dst = append(dst, copyDest{part: p})
			}
		}
	}
	return dst
}

// scatter is the one routing loop of the package: it calls visit once
// per copy the partitioner owes, in input order (a record's copies in
// copiesOf order), with the copy's class already set. The partition
// phase, the heal path and PartitionSlices are all callers, so the
// exactly-once argument has this one function to be read against. chk
// is polled on its stride; a visit error stops the scan.
func (g *grid) scatter(ks []geom.KPE, chk *govern.Check, visit func(part int, k geom.KPE) error) error {
	stamp := make([]int, g.parts)
	for i := range stamp {
		stamp[i] = -1
	}
	dests := make([]copyDest, 0, 8)
	st := chk.Stride()
	for idx := range ks {
		if err := st.Point(); err != nil {
			return err
		}
		dests = g.copiesOf(ks[idx].Rect, dests[:0], stamp, idx)
		for _, d := range dests {
			k := ks[idx]
			k.Class = d.class
			if err := visit(d.part, k); err != nil {
				return err
			}
		}
	}
	return nil
}
