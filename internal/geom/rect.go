// Package geom provides the planar geometry primitives used throughout the
// spatial-join library: axis-aligned rectangles (minimum bounding
// rectangles, MBRs), points, intersection predicates, and the reference
// points used for on-line duplicate detection (Dittrich & Seeger, ICDE
// 2000, §3.2.1 and §4.3).
//
// All coordinates live in the normalized unit data space [0,1)².
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the data space.
type Point struct {
	X, Y float64
}

// Rect is a rectilinear minimum bounding rectangle represented by its
// lower-left corner (XL, YL) and upper-right corner (XH, YH), following
// the paper's (r.xl, r.yl), (r.xh, r.yh) notation. A Rect is closed on
// all sides: degenerate rectangles (points, horizontal or vertical
// segments) are valid.
type Rect struct {
	XL, YL, XH, YH float64
}

// NewRect builds a rectangle from two corner points given in any order.
func NewRect(x1, y1, x2, y2 float64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{XL: x1, YL: y1, XH: x2, YH: y2}
}

// UnitRect is the whole normalized data space.
var UnitRect = Rect{0, 0, 1, 1}

// Valid reports whether r has non-negative extent and finite coordinates.
func (r Rect) Valid() bool {
	return r.XL <= r.XH && r.YL <= r.YH &&
		!math.IsNaN(r.XL) && !math.IsNaN(r.YL) &&
		!math.IsNaN(r.XH) && !math.IsNaN(r.YH) &&
		!math.IsInf(r.XL, 0) && !math.IsInf(r.YL, 0) &&
		!math.IsInf(r.XH, 0) && !math.IsInf(r.YH, 0)
}

// Width returns the x-extent of r.
func (r Rect) Width() float64 { return r.XH - r.XL }

// Height returns the y-extent of r.
func (r Rect) Height() float64 { return r.YH - r.YL }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of r.
func (r Rect) Center() Point { return Point{(r.XL + r.XH) / 2, (r.YL + r.YH) / 2} }

// Intersects reports whether r and s share at least one point.
// Boundaries count: touching rectangles intersect, which matches the
// filter-step semantics of MBR joins (a shared edge is a candidate).
func (r Rect) Intersects(s Rect) bool {
	return r.XL <= s.XH && s.XL <= r.XH && r.YL <= s.YH && s.YL <= r.YH
}

// IntersectsY reports whether the y-ranges of r and s overlap. Plane-sweep
// algorithms use this after establishing x-overlap from sweep order.
func (r Rect) IntersectsY(s Rect) bool {
	return r.YL <= s.YH && s.YL <= r.YH
}

// Intersection returns the common rectangle of r and s. The second result
// is false when they do not intersect.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	if !r.Intersects(s) {
		return Rect{}, false
	}
	return Rect{
		XL: math.Max(r.XL, s.XL),
		YL: math.Max(r.YL, s.YL),
		XH: math.Min(r.XH, s.XH),
		YH: math.Min(r.YH, s.YH),
	}, true
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		XL: math.Min(r.XL, s.XL),
		YL: math.Min(r.YL, s.YL),
		XH: math.Max(r.XH, s.XH),
		YH: math.Max(r.YH, s.YH),
	}
}

// Contains reports whether p lies inside r, including the boundary.
func (r Rect) Contains(p Point) bool {
	return r.XL <= p.X && p.X <= r.XH && r.YL <= p.Y && p.Y <= r.YH
}

// ContainsRect reports whether s lies fully inside r (boundaries allowed).
func (r Rect) ContainsRect(s Rect) bool {
	return r.XL <= s.XL && s.XH <= r.XH && r.YL <= s.YL && s.YH <= r.YH
}

// Scale grows (p > 1) or shrinks (p < 1) both edges of r by the factor p
// around its center, the transformation the paper uses to derive the
// LA_RR(p)/LA_ST(p) datasets with quadratically growing coverage. The
// result is clamped to the unit data space.
func (r Rect) Scale(p float64) Rect {
	c := r.Center()
	hw := r.Width() / 2 * p
	hh := r.Height() / 2 * p
	out := Rect{XL: c.X - hw, YL: c.Y - hh, XH: c.X + hw, YH: c.Y + hh}
	return out.ClampUnit()
}

// ClampUnit clips r to the unit data space [0,1]².
func (r Rect) ClampUnit() Rect {
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	return Rect{clamp(r.XL), clamp(r.YL), clamp(r.XH), clamp(r.YH)}
}

// Expand grows r by eps on every side, the filter-step transformation of
// an epsilon-distance join: expand(a, eps) intersects b exactly when the
// L-infinity distance of a and b is at most eps, a superset of the
// Euclidean-eps pairs that the refinement step then narrows down.
func (r Rect) Expand(eps float64) Rect {
	return Rect{XL: r.XL - eps, YL: r.YL - eps, XH: r.XH + eps, YH: r.YH + eps}
}

// MinDist returns the minimum Euclidean distance between r and s (zero
// when they intersect).
func (r Rect) MinDist(s Rect) float64 {
	dx := math.Max(0, math.Max(r.XL-s.XH, s.XL-r.XH))
	dy := math.Max(0, math.Max(r.YL-s.YH, s.YL-r.YH))
	return math.Hypot(dx, dy)
}

// RefPoint returns the reference point of an intersecting pair (r, s) as
// defined in §3.2.1 of the paper:
//
//	x = (max(r.xl, s.xl), min(r.yh, s.yh))
//
// i.e. the upper-left corner of the intersection rectangle. The reference
// point is symmetric in its arguments and always lies inside both r and s
// when they intersect, so each result pair maps to exactly one partition
// of any disjoint decomposition of the data space.
func RefPoint(r, s Rect) Point {
	return Point{X: math.Max(r.XL, s.XL), Y: math.Min(r.YH, s.YH)}
}

// ClampIdx maps a coordinate of the unit interval to a cell index in
// [0,n), half-open: a point on the seam i/n belongs to the cell above it,
// and 1 to the last cell. It is the one seam function of PBSM's tile grid,
// of every stripe layout (package stripe) and of S³J's quadtree cells
// (sfc.CellAt), so an index and the duplicate test that reads it always
// agree. It is total — 1e300, whose product with n no int holds, or NaN
// still lands in the first or last cell.
func ClampIdx(v float64, n int) int {
	if !(v > 0) {
		return 0
	}
	if v >= 1 {
		return n - 1
	}
	return min(int(v*float64(n)), n-1)
}

// OrderedKey maps x to a word whose unsigned order is the order of the
// floats: the sign bit is flipped for non-negative values and every bit for
// negative ones. It is the one sort key of a left edge, in memory (package
// sweep) and on disk (SSSJ's run sort). The order agrees with cmp.Compare
// on all non-NaN values except the zeros, which it tells apart: −0 sorts
// before +0. A NaN sorts beyond the infinity of its sign.
func OrderedKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// String formats r as [xl,yl x xh,yh].
func (r Rect) String() string {
	return fmt.Sprintf("[%.6g,%.6g x %.6g,%.6g]", r.XL, r.YL, r.XH, r.YH)
}
