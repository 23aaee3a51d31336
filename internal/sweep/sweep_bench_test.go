package sweep

import (
	"fmt"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
)

// Benchmarks of the internal join algorithms at partition-like sizes:
// small partitions are PBSM's normal diet at small memory, large ones
// appear when memory grows — the regime where the paper's trie sweep
// overtakes the classic list (§3.2.2, Figures 4 and 5).

func benchJoin(b *testing.B, alg Algorithm, n int) {
	rs := datagen.Uniform(1, n, 0.01)
	ss := datagen.Uniform(2, n, 0.01)
	rc := make([]geom.KPE, n)
	sc := make([]geom.KPE, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(rc, rs)
		copy(sc, ss)
		alg.Join(rc, sc, func(geom.KPE, geom.KPE) {})
	}
	b.ReportMetric(float64(alg.Tests())/float64(b.N), "tests/op")
}

func BenchmarkAlgorithms(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		for _, kind := range []Kind{NestedLoopsKind, ListKind, TrieKind} {
			if kind == NestedLoopsKind && n > 1000 {
				continue // quadratic; no insight past this size
			}
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				benchJoin(b, New(kind), n)
			})
		}
	}
}

func BenchmarkTrieStatusInsertProbe(b *testing.B) {
	ks := datagen.Uniform(3, 4096, 0.01)
	var tests, touches int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewStatus(TrieKind, 0, 1, &tests, &touches)
		for _, k := range ks {
			st.Probe(k, false, func(geom.KPE, geom.KPE) {})
			st.Insert(k)
		}
	}
}

func BenchmarkListStatusInsertProbe(b *testing.B) {
	ks := datagen.Uniform(3, 4096, 0.01)
	var tests, touches int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewStatus(ListKind, 0, 1, &tests, &touches)
		for _, k := range ks {
			st.Probe(k, false, func(geom.KPE, geom.KPE) {})
			st.Insert(k)
		}
	}
}

// BenchmarkSortByXL sorts LA_RR segments in generation order: the small
// inputs of S³J's partitions, the sizes around radixMin where pdqsort and
// the radix cross, one side of a stripe (stripe.Records/2 = 1 536 records)
// and a 300k relation; ns/record includes restoring the input before each
// sort.
func BenchmarkSortByXL(b *testing.B) {
	for _, n := range []int{16, 64, 128, 256, 1536, 300_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := datagen.LARR(1, n).KPEs
			ks := make([]geom.KPE, n)
			var keys []uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(ks, in)
				keys = sortByXL(ks, keys)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}
