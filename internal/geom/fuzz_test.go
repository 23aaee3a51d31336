package geom

import (
	"cmp"
	"math"
	"testing"
)

// Fuzz targets for the geometric invariants the join algorithms build
// on. The seed corpus runs as part of the normal test suite; `go test
// -fuzz=FuzzRefPoint ./internal/geom` explores further.

func FuzzRefPoint(f *testing.F) {
	f.Add(0.1, 0.1, 0.5, 0.5, 0.3, 0.3, 0.9, 0.9)
	f.Add(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5)
	f.Add(0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2)
	f.Fuzz(func(t *testing.T, ax1, ay1, ax2, ay2, bx1, by1, bx2, by2 float64) {
		a := NewRect(ax1, ay1, ax2, ay2)
		b := NewRect(bx1, by1, bx2, by2)
		if !a.Valid() || !b.Valid() {
			t.Skip()
		}
		if !a.Intersects(b) {
			return
		}
		x := RefPoint(a, b)
		if !a.Contains(x) || !b.Contains(x) {
			t.Fatalf("reference point %v escapes %v ∩ %v", x, a, b)
		}
		if x != RefPoint(b, a) {
			t.Fatalf("reference point not symmetric for %v, %v", a, b)
		}
	})
}

// FuzzOrderedKey checks that the unsigned order of the keys is the order
// of the floats, as cmp.Compare gives it, on every pair of non-NaN values
// but ±0, which cmp.Compare calls equal and the keys order −0 first.
func FuzzOrderedKey(f *testing.F) {
	f.Add(0.0, math.Copysign(0, -1))
	f.Add(-1.5, 1.5)
	f.Add(math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64)
	f.Add(math.MaxFloat64, math.Inf(1))
	f.Add(0.5, math.Nextafter(0.5, 1))
	f.Fuzz(func(t *testing.T, a, b float64) {
		if math.IsNaN(a) || math.IsNaN(b) {
			t.Skip()
		}
		want := cmp.Compare(a, b)
		if a == 0 && b == 0 {
			want = cmp.Compare(math.Copysign(1, a), math.Copysign(1, b)) // −0 first
		}
		if got := cmp.Compare(OrderedKey(a), OrderedKey(b)); got != want {
			t.Fatalf("keys of %g, %g compare %d, floats %d", a, b, got, want)
		}
	})
}

// FuzzDecodeKPE feeds arbitrary byte slices to the decoder: any input of
// at least KPESize bytes must decode without panicking and re-encode to
// the identical identifier and coordinate bytes (the decoder has no
// hidden normalization that corruption could exploit), with the reserved
// last byte zero.
func FuzzDecodeKPE(f *testing.F) {
	f.Add(make([]byte, KPESize))
	flip := make([]byte, KPESize)
	for i := range flip {
		flip[i] = 0xFF
	}
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < KPESize {
			t.Skip()
		}
		data = data[:KPESize]
		k := DecodeKPE(data)
		var buf [KPESize]byte
		EncodeKPE(buf[:], k)
		for i := range buf[:KPESize-1] {
			if buf[i] != data[i] {
				t.Fatalf("decode/encode not byte-identical at %d for corrupt input", i)
			}
		}
		if buf[KPESize-1] != 0 {
			t.Fatalf("reserved byte re-encoded as %#x, want 0", buf[KPESize-1])
		}
	})
}

func FuzzKPECodec(f *testing.F) {
	f.Add(uint64(0), 0.0, 0.0, 1.0, 1.0)
	f.Add(uint64(1<<63), 0.25, 0.5, 0.75, 1.0)
	f.Fuzz(func(t *testing.T, id uint64, x1, y1, x2, y2 float64) {
		k := KPE{ID: id, Rect: Rect{x1, y1, x2, y2}}
		var buf [KPESize]byte
		EncodeKPE(buf[:], k)
		got := DecodeKPE(buf[:])
		// NaN != NaN, so compare bit-level via re-encoding.
		var buf2 [KPESize]byte
		EncodeKPE(buf2[:], got)
		if buf != buf2 {
			t.Fatalf("codec not a bijection for %v", k)
		}
	})
}
