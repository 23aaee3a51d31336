// Package sfc implements the space-filling curves and quadtree cell
// arithmetic used by S³J (§4 of the paper): Peano (Z-order / Morton)
// codes, Hilbert codes, locational codes of MX-CIF quadtree cells, and
// the level-assignment functions — the original containment-based rule of
// Koudas & Sevcik and the size-based rule of the paper's replicated
// variant (§4.3).
//
// The data space is the unit square. A cell at level l is one of the 4^l
// squares of the equidistant grid with 2^l cells per axis; level 0 is the
// root (the whole space), matching the paper's numbering. Coordinates
// become cell indices through geom.ClampIdx alone, the seam function of
// PBSM's tiles too: seams are half-open (a point on a seam belongs to the
// cell above it), 1 belongs to the last cell, and every finite coordinate
// outside [0,1) is clamped to a border cell.
package sfc

import (
	"math"
	"math/bits"

	"spatialjoin/internal/geom"
)

// MaxLevel is the deepest supported quadtree level. 24 levels resolve the
// unit square to ~6e-8, far below the extent of any dataset rectangle,
// while keeping locational codes within 48 bits.
const MaxLevel = 24

// Curve selects the space-filling curve used for locational codes.
// §4.4.2 of the paper argues for Peano over Hilbert because its codes are
// cheaper to compute and the choice affects neither I/O nor the number of
// intersection tests; both are provided so the ablation can be run.
type Curve int

const (
	// Peano is the Z-order (Morton) curve, the paper's choice.
	Peano Curve = iota
	// Hilbert is the curve suggested in the original S³J paper.
	Hilbert
)

// String names the curve.
func (c Curve) String() string {
	if c == Hilbert {
		return "hilbert"
	}
	return "peano"
}

// Code returns the locational code of the cell (ix, iy) at the given
// level: the index of the cell along the curve, in [0, 4^level). Codes
// are hierarchical for both curves: the code of a cell's parent is
// code >> 2.
func (c Curve) Code(ix, iy uint32, level int) uint64 {
	if c == Hilbert {
		return hilbertD(ix, iy, level)
	}
	return zEncode(ix, iy, level)
}

// CellAt returns the grid coordinates of the level-l cell containing p,
// geom.ClampIdx on each axis. Every point thus has exactly one home cell,
// placed by the rule that places the rectangles — the invariant the
// Reference Point Method relies on.
func CellAt(p geom.Point, level int) (ix, iy uint32) {
	n := 1 << uint(level)
	return uint32(geom.ClampIdx(p.X, n)), uint32(geom.ClampIdx(p.Y, n))
}

// CellRect returns the region of cell (ix, iy) at the given level.
func CellRect(ix, iy uint32, level int) geom.Rect {
	size := math.Ldexp(1, -level) // 2^-level
	return geom.Rect{
		XL: float64(ix) * size,
		YL: float64(iy) * size,
		XH: float64(ix+1) * size,
		YH: float64(iy+1) * size,
	}
}

// ContainmentLevel implements the original S³J / MX-CIF level assignment:
// the deepest level (≤ maxLevel) at which CellAt puts r's corners (XL, YL)
// and (XH, YH) in the same cell, and the coordinates of that cell. Seams
// are half-open, 1 is in the last cell and every finite coordinate is
// clamped, so a high edge on a seam counts in the cell above it, and any
// finite rectangle gets a cell. Scaling by a power of two is exact, so a
// cell's index at level l−1 is its index at l shifted right by one: the
// corners part at the highest bit in which their maxLevel indices differ,
// and every level above it holds both. Two intersecting rectangles then
// sit on one root path: their index ranges overlap at every level, so the
// shallower one's cell is an ancestor of (or equal to) the deeper one's.
func ContainmentLevel(r geom.Rect, maxLevel int) (level int, ix, iy uint32) {
	x0, y0 := CellAt(geom.Point{X: r.XL, Y: r.YL}, maxLevel)
	x1, y1 := CellAt(geom.Point{X: r.XH, Y: r.YH}, maxLevel)
	up := bits.Len32((x0 ^ x1) | (y0 ^ y1))
	return maxLevel - up, x0 >> uint(up), y0 >> uint(up)
}

// SizeLevel implements the replicated variant's level assignment (§4.3):
//
//	max{ k | xh−xl ≤ 2^−k  ∧  yh−yl ≤ 2^−k }
//
// capped to [0, maxLevel]. Degenerate rectangles land on maxLevel. The
// level is read off the float exponent of the larger extent e: with
// e = frac·2^exp and frac in [½, 1), e ≤ 2^−k holds exactly for
// k ≤ −exp, and for k ≤ −exp+1 when e is the power of two ½·2^exp. An
// infinite extent gets level 0.
func SizeLevel(r geom.Rect, maxLevel int) int {
	e := math.Max(r.Width(), r.Height())
	if e <= 0 {
		return maxLevel
	}
	frac, exp := math.Frexp(e)
	k := -exp
	if frac == 0.5 {
		k++
	}
	return min(max(k, 0), maxLevel)
}

// OverlapCells appends to dst the (ix, iy) coordinates of every level-l
// cell from CellAt of r's corner (XL, YL) to CellAt of (XH, YH) and
// returns the extended slice. An edge on a seam belongs to the cell above
// the seam, as a point on it does: a high edge there reaches into that
// cell, a low edge leaves the cell below out. So the set holds the home
// cell of every point of r, the reference point of each of its pairs
// among them. For a rectangle at its SizeLevel the result has at most four
// cells, the paper's replication bound.
func OverlapCells(r geom.Rect, level int, dst [][2]uint32) [][2]uint32 {
	x0, y0 := CellAt(geom.Point{X: r.XL, Y: r.YL}, level)
	x1, y1 := CellAt(geom.Point{X: r.XH, Y: r.YH}, level)
	for iy := y0; iy <= y1; iy++ {
		for ix := x0; ix <= x1; ix++ {
			dst = append(dst, [2]uint32{ix, iy})
		}
	}
	return dst
}

// CodeInterval returns the half-open interval [lo, hi) of depth-MaxLevel
// locational codes covered by the cell with the given code at the given
// level. Cells at different levels compare on the curve through these
// intervals: an ancestor's interval contains all its descendants'.
func CodeInterval(code uint64, level int) (lo, hi uint64) {
	shift := uint(2 * (MaxLevel - level))
	return code << shift, (code + 1) << shift
}

// zEncode interleaves the low `level` bits of ix and iy into a Morton
// code: bit pairs are (y, x) from most significant cell split to least.
func zEncode(ix, iy uint32, level int) uint64 {
	return spread(ix, level) | spread(iy, level)<<1
}

// spread inserts a zero bit between each of the low `level` bits of v.
func spread(v uint32, level int) uint64 {
	x := uint64(v) & ((1 << uint(level)) - 1)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// ZDecode is the inverse of zEncode at the given level.
func ZDecode(code uint64, level int) (ix, iy uint32) {
	return compact(code), compact(code >> 1)
}

func compact(x uint64) uint32 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	x = (x | x>>16) & 0x00000000FFFFFFFF
	return uint32(x)
}

// hilbertD converts cell coordinates to the Hilbert-curve index at the
// given order (level), using the classic iterative rotate-and-flip
// formulation. The resulting codes are hierarchical like Z-codes.
func hilbertD(x, y uint32, level int) uint64 {
	if level <= 0 {
		return 0
	}
	var d uint64
	for s := uint32(1) << uint(level-1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// HilbertXY is the inverse of the Hilbert index at the given order.
func HilbertXY(d uint64, level int) (x, y uint32) {
	t := d
	for s := uint64(1); s < 1<<uint(level); s <<= 1 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		// Rotate back.
		if ry == 0 {
			if rx == 1 {
				x = uint32(s) - 1 - x
				y = uint32(s) - 1 - y
			}
			x, y = y, x
		}
		x += uint32(s) * rx
		y += uint32(s) * ry
		t /= 4
	}
	return x, y
}
