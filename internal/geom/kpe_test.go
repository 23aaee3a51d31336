package geom

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKPERoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 1000,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(KPE{ID: rng.Uint64(), Rect: genRect(rng)})
		},
	}
	f := func(k KPE) bool {
		var buf [KPESize]byte
		if n := EncodeKPE(buf[:], k); n != KPESize {
			return false
		}
		return DecodeKPE(buf[:]) == k
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPairRoundTrip(t *testing.T) {
	f := func(r, s uint64) bool {
		var buf [PairSize]byte
		p := Pair{R: r, S: s}
		EncodePair(buf[:], p)
		return DecodePair(buf[:]) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPairLessIsStrictWeakOrder(t *testing.T) {
	f := func(a, b, c Pair) bool {
		// Irreflexive and asymmetric.
		if a.Less(a) {
			return false
		}
		if a.Less(b) && b.Less(a) {
			return false
		}
		// Transitive.
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPairLessLexicographic(t *testing.T) {
	if !(Pair{1, 9}).Less(Pair{2, 0}) {
		t.Error("R dominates")
	}
	if !(Pair{1, 2}).Less(Pair{1, 3}) {
		t.Error("S breaks ties")
	}
	if (Pair{1, 3}).Less(Pair{1, 3}) {
		t.Error("equal pairs are not Less")
	}
}

// TestSortPairsAgreesWithLess: the radix sort leaves any pairs, with or
// without equal ones, small or full-width IDs, in Less's order.
func TestSortPairsAgreesWithLess(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []uint{0, 1, 12, 33, 64} {
		for _, n := range []int{0, 1, 2, 100, 5000} {
			ps := make([]Pair, n)
			for i := range ps {
				// Every third pair repeats an earlier one.
				if i > 0 && i%3 == 0 {
					ps[i] = ps[rng.Intn(i)]
					continue
				}
				ps[i] = Pair{R: rng.Uint64() >> (64 - bits), S: rng.Uint64() >> (64 - bits)}
			}
			want := slices.Clone(ps)
			sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
			SortPairs(ps, make([]Pair, n+3))
			if !slices.Equal(ps, want) {
				t.Fatalf("%d pairs of %d-bit IDs: SortPairs disagrees with Less", n, bits)
			}
		}
	}
}

func TestKPESizeMatchesEncoding(t *testing.T) {
	// The memory model (formula (1) of the paper) relies on this size.
	buf := [KPESize]byte{40: 0xFF}
	if n := EncodeKPE(buf[:], KPE{ID: 1, Rect: Rect{0.25, 0.5, 0.75, 1}}); n != 41 {
		t.Fatalf("KPESize = %d, want 41", n)
	}
	// The last byte is reserved: written as zero, whatever it held.
	if buf[40] != 0 {
		t.Fatalf("byte 40 encoded as %#x, want 0", buf[40])
	}
	// In memory a KPE is its identifier and rectangle, nothing more.
	if n := unsafe.Sizeof(KPE{}); n != 40 {
		t.Fatalf("unsafe.Sizeof(KPE{}) = %d, want 40", n)
	}
}
