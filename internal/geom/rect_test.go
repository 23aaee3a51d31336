package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genRect draws a random rectangle inside the unit square.
func genRect(rng *rand.Rand) Rect {
	x1, y1 := rng.Float64(), rng.Float64()
	x2, y2 := rng.Float64(), rng.Float64()
	return NewRect(x1, y1, x2, y2)
}

// quickCfg makes testing/quick generate unit-square rectangles.
func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(genRect(rng))
			}
		},
	}
}

func TestNewRectNormalizesCorners(t *testing.T) {
	r := NewRect(0.9, 0.8, 0.1, 0.2)
	want := Rect{0.1, 0.2, 0.9, 0.8}
	if r != want {
		t.Fatalf("got %v, want %v", r, want)
	}
	if !r.Valid() {
		t.Fatal("normalized rect must be valid")
	}
}

func TestValidRejectsBadRects(t *testing.T) {
	cases := []Rect{
		{0.5, 0, 0.1, 1},       // xl > xh
		{0, 0.5, 1, 0.1},       // yl > yh
		{math.NaN(), 0, 1, 1},  // NaN
		{0, 0, math.Inf(1), 1}, // Inf
	}
	for _, r := range cases {
		if r.Valid() {
			t.Errorf("rect %v should be invalid", r)
		}
	}
	if !(Rect{0.3, 0.3, 0.3, 0.3}).Valid() {
		t.Error("degenerate point rect should be valid")
	}
}

func TestIntersectsBasics(t *testing.T) {
	a := Rect{0.1, 0.1, 0.5, 0.5}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{0.4, 0.4, 0.9, 0.9}, true},  // overlap
		{Rect{0.5, 0.1, 0.9, 0.5}, true},  // shared edge
		{Rect{0.5, 0.5, 0.9, 0.9}, true},  // shared corner
		{Rect{0.6, 0.6, 0.9, 0.9}, false}, // disjoint
		{Rect{0.2, 0.2, 0.3, 0.3}, true},  // containment
		{Rect{0.1, 0.6, 0.5, 0.9}, false}, // y-disjoint only
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}

func TestIntersectsSymmetric(t *testing.T) {
	f := func(a, b Rect) bool { return a.Intersects(b) == b.Intersects(a) }
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectionConsistentWithPredicate(t *testing.T) {
	f := func(a, b Rect) bool {
		in, ok := a.Intersection(b)
		if ok != a.Intersects(b) {
			return false
		}
		if !ok {
			return true
		}
		// The intersection must be valid and contained in both.
		return in.Valid() && a.ContainsRect(in) && b.ContainsRect(in)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestUnionContainsBoth(t *testing.T) {
	f := func(a, b Rect) bool {
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestRefPointInsideIntersection(t *testing.T) {
	f := func(a, b Rect) bool {
		if !a.Intersects(b) {
			return true
		}
		x := RefPoint(a, b)
		in, _ := a.Intersection(b)
		return in.Contains(x) && a.Contains(x) && b.Contains(x)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestRefPointSymmetric(t *testing.T) {
	f := func(a, b Rect) bool {
		if !a.Intersects(b) {
			return true
		}
		return RefPoint(a, b) == RefPoint(b, a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestRefPointDefinition(t *testing.T) {
	a := Rect{0.1, 0.1, 0.6, 0.6}
	b := Rect{0.3, 0.2, 0.9, 0.5}
	x := RefPoint(a, b)
	if x.X != 0.3 || x.Y != 0.5 {
		t.Fatalf("reference point = %v, want (0.3, 0.5)", x)
	}
}

func TestScaleCoverageGrowsQuadratically(t *testing.T) {
	// Away from boundaries, Scale(p) multiplies area by p².
	r := Rect{0.4, 0.4, 0.5, 0.5}
	for _, p := range []float64{1, 2, 3} {
		got := r.Scale(p).Area()
		want := r.Area() * p * p
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Scale(%v): area %g, want %g", p, got, want)
		}
	}
}

func TestScalePreservesCenterAndClamps(t *testing.T) {
	r := Rect{0.0, 0.0, 0.2, 0.2} // at the corner: clamping kicks in
	s := r.Scale(4)
	if s.XL < 0 || s.YL < 0 || s.XH > 1 || s.YH > 1 {
		t.Fatalf("scaled rect %v escapes the unit square", s)
	}
	inner := Rect{0.45, 0.45, 0.55, 0.55}
	s = inner.Scale(2)
	if c, want := s.Center(), inner.Center(); math.Abs(c.X-want.X) > 1e-12 || math.Abs(c.Y-want.Y) > 1e-12 {
		t.Fatalf("center moved: %v -> %v", want, c)
	}
}

func TestContainsBoundary(t *testing.T) {
	r := Rect{0.2, 0.2, 0.8, 0.8}
	for _, p := range []Point{{0.2, 0.2}, {0.8, 0.8}, {0.2, 0.5}, {0.5, 0.8}} {
		if !r.Contains(p) {
			t.Errorf("boundary point %v must be contained", p)
		}
	}
	if r.Contains(Point{0.81, 0.5}) {
		t.Error("outside point reported contained")
	}
}

func TestAreaWidthHeight(t *testing.T) {
	r := Rect{0.1, 0.2, 0.4, 0.8}
	if w := r.Width(); math.Abs(w-0.3) > 1e-15 {
		t.Errorf("Width = %g", w)
	}
	if h := r.Height(); math.Abs(h-0.6) > 1e-15 {
		t.Errorf("Height = %g", h)
	}
	if a := r.Area(); math.Abs(a-0.18) > 1e-15 {
		t.Errorf("Area = %g", a)
	}
}

// TestOrderedKeyOrder: the keys of strictly increasing floats increase
// strictly, across the sign, the subnormals, the zeros (−0 before +0), the
// largest finite values and the infinities.
func TestOrderedKeyOrder(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	xs := []float64{
		math.Inf(-1), -math.MaxFloat64, -2.5, -1e-300, -2 * sub, -sub, math.Copysign(0, -1),
		0, sub, 2 * sub, 1e-300, 0.25, 0.5, math.Nextafter(0.5, 1), 1, math.MaxFloat64, math.Inf(1),
	}
	for i := 1; i < len(xs); i++ {
		if a, b := OrderedKey(xs[i-1]), OrderedKey(xs[i]); a >= b {
			t.Errorf("OrderedKey(%g) = %#x does not sort before OrderedKey(%g) = %#x", xs[i-1], a, xs[i], b)
		}
	}
}
