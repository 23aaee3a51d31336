package sfc

import (
	"math"
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

// The paper's §4.4.2 picks the Peano curve over Hilbert purely on
// code-computation cost; these benchmarks quantify the gap on this
// hardware (the ablation abl-curve shows it end to end).

func BenchmarkPeanoCode(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Peano.Code(uint32(i)&0xFFFFF, uint32(i*7)&0xFFFFF, 20)
	}
	benchSink = sink
}

func BenchmarkHilbertCode(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Hilbert.Code(uint32(i)&0xFFFFF, uint32(i*7)&0xFFFFF, 20)
	}
	benchSink = sink
}

func BenchmarkContainmentLevel(b *testing.B) {
	r := geom.NewRect(0.312, 0.401, 0.313, 0.402)
	var sink int
	for i := 0; i < b.N; i++ {
		l, _, _ := ContainmentLevel(r, MaxLevel)
		sink += l
	}
	benchSink = uint64(sink)
}

// BenchmarkSizeLevel cycles over 1024 rectangles whose extents spread
// over every level, powers of two among them, so that neither the branch
// predictor nor a level-specific shortcut sees one shape.
func BenchmarkSizeLevel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rs := make([]geom.Rect, 1024)
	for i := range rs {
		w := math.Ldexp(1, -rng.Intn(MaxLevel+2))
		if i%4 != 0 {
			w *= 0.5 + rng.Float64()/2
		}
		x, y := rng.Float64()*(1-w), rng.Float64()*(1-w)
		rs[i] = geom.NewRect(x, y, x+w, y+w*rng.Float64())
	}
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += SizeLevel(rs[i&1023], MaxLevel)
	}
	benchSink = uint64(sink)
}

var benchSink uint64
