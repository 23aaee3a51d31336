package stripe

import (
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/sweep"
)

// TestUnitBandIsTheGrid: over the unit square a stripe index is
// geom.ClampIdx's, bit for bit, for every float — which is what keeps PBSM's
// stripes on the seams of its tile grid.
func TestUnitBandIsTheGrid(t *testing.T) {
	vs := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 1, math.Nextafter(1, 0), 1e-310, 2, -3, 1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		vs = append(vs, rng.Float64())
	}
	for _, v := range vs {
		for _, k := range []int{1, 2, 3, 4, 7, 64} {
			if got, want := Unit.of(v, k), geom.ClampIdx(v, k); got != want {
				t.Fatalf("Unit.of(%g, %d) = %d, geom.ClampIdx gives %d", v, k, got, want)
			}
		}
	}
}

// TestBandStripes: a band with no finite scale — zero height, or a height
// whose inverse overflows — is one stripe however many records it holds;
// any other band is cut by Count.
func TestBandStripes(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi float64
		want   int
	}{
		{"unit", 0, 1, 4},
		{"inner", 0.25, 0.75, 4},
		{"zero height", 0.5, 0.5, 1},
		{"subnormal height", 0, 1e-310, 1},
		{"subnormal height, finite inverse", 0, 1e-308, 4},
		{"inverted", 0.75, 0.25, 1},
		{"NaN", math.NaN(), 1, 1},
	} {
		if got := Over(c.lo, c.hi).stripes(4 * Records); got != c.want {
			t.Errorf("%s: Over(%g, %g) cuts %d records into %d stripes, want %d", c.name, c.lo, c.hi, 4*Records, got, c.want)
		}
	}
}

// TestStripeSlotTrim: a slot that had to outgrow the budget gives the
// oversized buffers back and keeps the rest — for a PBSM memory-overflow
// leaf, and for an SHJ bucket over the budget, whose join has also built
// a stripe index and gathered stripes over the bucket's extent; the same
// bucket within the budget keeps everything for the next one.
func TestStripeSlotTrim(t *testing.T) {
	sl := &Slot{
		LoadR: make([]geom.KPE, 0, 101),
		LoadS: make([]geom.KPE, 0, 100),
		rs:    make([]geom.KPE, 0, 500),
		ss:    make([]geom.KPE, 0, 7),
	}
	sl.pair.ixR.pos, sl.pair.ixS.pos = make([]uint32, 101), make([]uint32, 100)
	sl.trim(100)
	if sl.LoadR != nil || sl.rs != nil || sl.pair.ixR.pos != nil {
		t.Fatal("buffers over the limit must be dropped")
	}
	if cap(sl.LoadS) != 100 || cap(sl.ss) != 7 || len(sl.pair.ixS.pos) != 100 {
		t.Fatal("buffers within the limit must be kept")
	}

	// An SHJ bucket, R spanning y ∈ [0.2, 0.4], its band, and S reaching
	// past it: over the budget, JoinLoaded trims what the bucket grew.
	for _, c := range []struct {
		memory  int64
		trimmed bool
	}{{1 << 40, false}, {Records * geom.KPESize, true}} {
		rng := rand.New(rand.NewSource(2))
		bucket := NewExec(sweep.ListKind, c.memory, sched.Options{}).Slot()
		for i := 0; i < 3*Records; i++ {
			x, y := rng.Float64(), 0.2+0.2*rng.Float64()
			bucket.LoadR = append(bucket.LoadR, geom.KPE{ID: uint64(i), Rect: geom.NewRect(x, y, x+0.01, min(0.4, y+0.01))})
			bucket.LoadS = append(bucket.LoadS, geom.KPE{ID: uint64(i), Rect: geom.NewRect(x, y-0.02, x+0.01, y+0.02)})
		}
		if err := bucket.JoinLoaded(func([]geom.Pair) {}, Over(0.2, 0.4), nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		if bucket.pair.k != Count(6*Records) || bucket.rs == nil || bucket.ss == nil {
			t.Fatalf("memory %d: the bucket was not striped: K = %d", c.memory, bucket.pair.k)
		}
		if dropped := bucket.LoadR == nil && bucket.LoadS == nil && bucket.pair.ixR.pos == nil && bucket.pair.ixS.pos == nil; dropped != c.trimmed {
			t.Fatalf("memory %d: load buffers and stripe index dropped = %v, want %v", c.memory, dropped, c.trimmed)
		}
	}
}
