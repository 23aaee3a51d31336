package sweep

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/jointest"
)

func collect(a Algorithm, rs, ss []geom.KPE) []geom.Pair {
	// Copy inputs: Join may reorder.
	rc := append([]geom.KPE(nil), rs...)
	sc := append([]geom.KPE(nil), ss...)
	var out []geom.Pair
	a.Join(rc, sc, func(r, s geom.KPE) {
		out = append(out, geom.Pair{R: r.ID, S: s.ID})
	})
	jointest.SortPairs(out)
	return out
}

func allAlgorithms() []Algorithm {
	return []Algorithm{&NestedLoops{}, &ListSweep{}, &TrieSweep{}}
}

func comparePairs(t *testing.T, name string, got, want []geom.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d pairs, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func TestAlgorithmsMatchOracleUniform(t *testing.T) {
	rs := datagen.Uniform(1, 400, 0.06)
	ss := datagen.Uniform(2, 400, 0.06)
	want := jointest.Naive(rs, ss)
	if len(want) == 0 {
		t.Fatal("test data produced no intersections")
	}
	for _, a := range allAlgorithms() {
		comparePairs(t, a.Name(), collect(a, rs, ss), want)
	}
}

func TestAlgorithmsMatchOracleClustered(t *testing.T) {
	rs := datagen.LARR(3, 600).KPEs
	ss := datagen.LAST(4, 600).KPEs
	want := jointest.Naive(rs, ss)
	for _, a := range allAlgorithms() {
		comparePairs(t, a.Name(), collect(a, rs, ss), want)
	}
}

func TestAlgorithmsSelfJoin(t *testing.T) {
	rs := datagen.Uniform(5, 300, 0.05)
	want := jointest.Naive(rs, rs)
	for _, a := range allAlgorithms() {
		comparePairs(t, a.Name(), collect(a, rs, rs), want)
	}
}

func TestAlgorithmsEmptyInputs(t *testing.T) {
	rs := datagen.Uniform(6, 20, 0.1)
	for _, a := range allAlgorithms() {
		if got := collect(a, nil, rs); len(got) != 0 {
			t.Errorf("%s: empty R produced %d pairs", a.Name(), len(got))
		}
		if got := collect(a, rs, nil); len(got) != 0 {
			t.Errorf("%s: empty S produced %d pairs", a.Name(), len(got))
		}
		if got := collect(a, nil, nil); len(got) != 0 {
			t.Errorf("%s: empty join produced %d pairs", a.Name(), len(got))
		}
	}
}

func TestAlgorithmsDegenerateRects(t *testing.T) {
	// Points, horizontal and vertical segments, identical rects, shared
	// edges — the boundary soup that breaks sloppy sweeps.
	rs := []geom.KPE{
		{ID: 0, Rect: geom.NewRect(0.5, 0.5, 0.5, 0.5)}, // point
		{ID: 1, Rect: geom.NewRect(0.1, 0.5, 0.9, 0.5)}, // horizontal segment
		{ID: 2, Rect: geom.NewRect(0.5, 0.1, 0.5, 0.9)}, // vertical segment
		{ID: 3, Rect: geom.NewRect(0.2, 0.2, 0.4, 0.4)},
	}
	ss := []geom.KPE{
		{ID: 0, Rect: geom.NewRect(0.5, 0.5, 0.5, 0.5)}, // same point
		{ID: 1, Rect: geom.NewRect(0.4, 0.4, 0.6, 0.6)}, // touches rect 3 at corner
		{ID: 2, Rect: geom.NewRect(0.9, 0.5, 1.0, 0.5)}, // touches segment 1 endpoint
		{ID: 3, Rect: geom.NewRect(0.0, 0.0, 0.1, 0.1)},
	}
	want := jointest.Naive(rs, ss)
	for _, a := range allAlgorithms() {
		comparePairs(t, a.Name(), collect(a, rs, ss), want)
	}
}

func TestAlgorithmsEquivalenceProperty(t *testing.T) {
	f := func(seed int64, nr, ns uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomKPEs(rng, int(nr)%60+1)
		ss := randomKPEs(rng, int(ns)%60+1)
		want := jointest.Naive(rs, ss)
		for _, a := range allAlgorithms() {
			got := collect(a, rs, ss)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// randomKPEs mixes tiny, large, degenerate and duplicated rectangles,
// including exact coordinate collisions that stress sweep tie-breaking.
func randomKPEs(rng *rand.Rand, n int) []geom.KPE {
	grid := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}
	ks := make([]geom.KPE, n)
	for i := range ks {
		var r geom.Rect
		if rng.Intn(3) == 0 {
			// Snap to a coarse grid: exact coordinate ties.
			r = geom.NewRect(grid[rng.Intn(len(grid))], grid[rng.Intn(len(grid))],
				grid[rng.Intn(len(grid))], grid[rng.Intn(len(grid))])
		} else {
			cx, cy := rng.Float64(), rng.Float64()
			w, h := rng.Float64()*0.3, rng.Float64()*0.3
			r = geom.NewRect(cx, cy, cx+w, cy+h).ClampUnit()
		}
		ks[i] = geom.KPE{ID: uint64(i), Rect: r}
	}
	return ks
}

// TestTestsCounterAdvancesAndResets: the counters start at zero and add
// up across joins, so a second identical join doubles them; a fresh
// algorithm is how a caller starts over.
func TestTestsCounterAdvancesAndResets(t *testing.T) {
	rs := datagen.Uniform(7, 100, 0.1)
	ss := datagen.Uniform(8, 100, 0.1)
	for _, a := range allAlgorithms() {
		if a.Tests() != 0 || a.Touches() != 0 {
			t.Errorf("%s: a fresh algorithm counts %d tests, %d touches", a.Name(), a.Tests(), a.Touches())
		}
		collect(a, rs, ss)
		tests, touches := a.Tests(), a.Touches()
		if tests == 0 {
			t.Errorf("%s: Tests() = 0 after a join", a.Name())
		}
		collect(a, rs, ss)
		if a.Tests() != 2*tests || a.Touches() != 2*touches {
			t.Errorf("%s: a second join took the counts from %d/%d to %d/%d", a.Name(), tests, touches, a.Tests(), a.Touches())
		}
	}
}

func TestTrieDoesFewerTestsOnLargeInputs(t *testing.T) {
	// The reason the paper proposes the trie sweep (§3.2.2): on large
	// partitions it performs far fewer candidate tests than the list.
	rs := datagen.Uniform(9, 4000, 0.01)
	ss := datagen.Uniform(10, 4000, 0.01)
	list, trie := &ListSweep{}, &TrieSweep{}
	collect(list, rs, ss)
	collect(trie, rs, ss)
	if trie.Tests() >= list.Tests() {
		t.Fatalf("trie tests (%d) not below list tests (%d)", trie.Tests(), list.Tests())
	}
	if trie.Tests()*2 > list.Tests() {
		t.Logf("warning: trie advantage small: %d vs %d", trie.Tests(), list.Tests())
	}
}

func TestNewSelectsKinds(t *testing.T) {
	if New(NestedLoopsKind).Name() != "nested" {
		t.Error("nested")
	}
	if New(ListKind).Name() != "list" {
		t.Error("list")
	}
	if New(TrieKind).Name() != "trie" {
		t.Error("trie")
	}
	if New("").Name() != "list" {
		t.Error("default must be list")
	}
	for _, k := range []Kind{"", NestedLoopsKind, ListKind, TrieKind} {
		if !k.Valid() {
			t.Errorf("%q must be valid", k)
		}
	}
	// A kind that is not Valid reaches no sweep: core.Join and a shard
	// worker refuse it, and New and NewStatus panic rather than run the
	// list sweep in its place.
	if Kind("tri").Valid() {
		t.Fatal(`"tri" must not be valid`)
	}
	for name, f := range map[string]func(){
		"New":       func() { New("tri") },
		"NewStatus": func() { NewStatus("tri", 0, 1, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf(`%s("tri") must panic`, name)
				}
			}()
			f()
		}()
	}
}

func TestTrieCustomDepth(t *testing.T) {
	rs := datagen.Uniform(11, 200, 0.05)
	ss := datagen.Uniform(12, 200, 0.05)
	want := jointest.Naive(rs, ss)
	for _, depth := range []int{1, 4, 24} {
		a := &TrieSweep{Depth: depth}
		comparePairs(t, "trie-depth", collect(a, rs, ss), want)
	}
}

func TestJoinMayReorderButNotMutateContents(t *testing.T) {
	rs := datagen.Uniform(13, 100, 0.05)
	ss := datagen.Uniform(14, 100, 0.05)
	rc := append([]geom.KPE(nil), rs...)
	sc := append([]geom.KPE(nil), ss...)
	(&ListSweep{}).Join(rc, sc, func(geom.KPE, geom.KPE) {})
	// Same multiset of elements.
	count := make(map[geom.KPE]int)
	for _, k := range rs {
		count[k]++
	}
	for _, k := range rc {
		count[k]--
	}
	for _, c := range count {
		if c != 0 {
			t.Fatal("Join changed slice contents, not just order")
		}
	}
}

// xlOrder is the sweep order as a comparator, for a stable reference sort.
func xlOrder(a, b geom.KPE) int {
	return cmp.Compare(geom.OrderedKey(a.Rect.XL), geom.OrderedKey(b.Rect.XL))
}

// sweeper is what ListSweep and TrieSweep run once their inputs are sorted.
type sweeper interface {
	Algorithm
	sweep(rs, ss []geom.KPE, emit Emit)
}

// TestSortByXLExactOrder: on ties, near-ties, signed zeros, coordinates
// outside the unit square, tiny and presorted inputs the sort yields
// exactly what a stable comparator sort by geom.OrderedKey(XL) yields (so
// a permutation of the input, ties in input order). The list and trie
// sweeps over such inputs report the nested-loops result, and their tests
// and touches are those of the same sweep after the old comparator sort.
func TestSortByXLExactOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	xls := func(n int, f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	perm := rng.Perm(5000)
	cases := []struct {
		name string
		xs   []float64
	}{
		{"identical", xls(5000, func(int) float64 { return 0.3 })},
		// 0.5 + k ulp for shuffled k < 2500: one run of equal high halves
		// over the whole input, with ties inside it.
		{"one-run", xls(5000, func(i int) float64 {
			return math.Float64frombits(math.Float64bits(0.5) + uint64(perm[i]%2500))
		})},
		{"signed-zeros", xls(1000, func(int) float64 { return math.Copysign(0, float64(rng.Intn(2)*2-1)) })},
		{"outside-unit", xls(3000, func(int) float64 { return (rng.Float64() - 0.5) * 6 })},
		{"n=0", nil},
		{"n=1", []float64{0.4}},
		{"n=2", []float64{0.7, 0.2}},
		{"n=2-tied", []float64{0.2, 0.2}},
		{"sorted", xls(2000, func(i int) float64 { return float64(i) / 2000 })},
		{"reversed", xls(2000, func(i int) float64 { return float64(2000-i) / 2000 })},
		// Either side of the cutoff between pdqsort and the radix, with
		// ties from a coarse grid.
		{"radixMin-1", xls(radixMin-1, func(int) float64 { return float64(rng.Intn(64)) / 64 })},
		{"radixMin", xls(radixMin, func(int) float64 { return float64(rng.Intn(64)) / 64 })},
		{"radixMin+1", xls(radixMin+1, func(int) float64 { return float64(rng.Intn(64)) / 64 })},
		// Keys that differ in the lowest byte of the high half only, so
		// the radix skips three of its four passes.
		{"one-byte", xls(1000, func(int) float64 {
			return math.Float64frombits(math.Float64bits(0.5) + uint64(rng.Intn(256))<<32)
		})},
		// Negative and positive left edges: the top byte varies too.
		{"mixed-sign", xls(1000, func(int) float64 { return rng.Float64() - 0.5 })},
	}
	var keys []uint64 // one scratch across the cases, as in a slot
	for _, tc := range cases {
		ks := make([]geom.KPE, len(tc.xs))
		for i, x := range tc.xs {
			y := rng.Float64()
			ks[i] = geom.KPE{ID: uint64(i), Rect: geom.Rect{XL: x, YL: y, XH: x + rng.Float64()*0.01, YH: y + 0.05}}
		}
		want := slices.Clone(ks)
		slices.SortStableFunc(want, xlOrder)
		got := slices.Clone(ks)
		keys = sortByXL(got, keys)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: sort order differs from the stable reference", tc.name)
		}

		// Joins of the first 600 records, split by parity, so the
		// identical case stays at 90 000 pairs.
		var rs, ss []geom.KPE
		for i, k := range ks[:min(len(ks), 600)] {
			if i%2 == 0 {
				rs = append(rs, k)
			} else {
				ss = append(ss, k)
			}
		}
		if len(rs) == 0 || len(ss) == 0 {
			continue
		}
		oracle := collect(&NestedLoops{}, rs, ss)
		for _, a := range []sweeper{&ListSweep{}, &TrieSweep{}} {
			comparePairs(t, tc.name+"/"+a.Name(), collect(a, rs, ss), oracle)
			ref := New(Kind(a.Name())).(sweeper)
			rc, sc := slices.Clone(rs), slices.Clone(ss)
			for _, side := range [][]geom.KPE{rc, sc} {
				slices.SortFunc(side, func(a, b geom.KPE) int { return cmp.Compare(a.Rect.XL, b.Rect.XL) })
			}
			ref.sweep(rc, sc, func(geom.KPE, geom.KPE) {})
			if a.Tests() != ref.Tests() || a.Touches() != ref.Touches() {
				t.Fatalf("%s/%s: tests/touches %d/%d, after a comparator sort %d/%d",
					tc.name, a.Name(), a.Tests(), a.Touches(), ref.Tests(), ref.Touches())
			}
		}
	}
}

// checkSweepOrder fails t unless got holds every record of in once, by ID,
// in (geom.OrderedKey(XL), input position) order; in[i] has ID i.
func checkSweepOrder(t *testing.T, in, got []geom.KPE) {
	t.Helper()
	if len(got) != len(in) {
		t.Fatalf("%d records in, %d out", len(in), len(got))
	}
	seen := make([]bool, len(in))
	for i, k := range got {
		if k.ID >= uint64(len(in)) || seen[k.ID] || in[k.ID] != k {
			t.Fatalf("position %d holds %v: not a permutation of the input", i, k)
		}
		seen[k.ID] = true
		if i > 0 {
			if c := xlOrder(got[i-1], k); c > 0 || c == 0 && got[i-1].ID > k.ID {
				t.Fatalf("positions %d, %d: %v before %v", i-1, i, got[i-1], k)
			}
		}
	}
}

// FuzzSortByXL sorts arbitrary left edges. Two bytes make one record: the
// first adds to the high half of base's bits, the second's low seven bits
// to the low half and its top bit negates, so inputs hold exact ties,
// near-ties within one high half, far-apart keys and, from base 0, both
// zeros and the subnormals. Each input is sorted twice: as given, most
// often short enough for pdqsort, and tiled past radixMin, so that the
// radix sorts the same keys with ties that span the whole input.
func FuzzSortByXL(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0, 1, 0, 0x81, 0, 0x80}, 0.0)
	f.Add([]byte{0, 5, 0, 3, 0, 5, 1, 0, 0, 7, 0, 3}, 0.5)
	f.Add([]byte{9, 1, 3, 0x82, 9, 1, 200, 4, 3, 0x82}, -1.0)
	f.Add([]byte{255, 127, 0, 0, 255, 127}, 1e300)
	long := make([]byte, 2*(radixMin+3))
	for i := range long {
		long[i] = byte(i * 37)
	}
	f.Add(long, 0.25)
	f.Fuzz(func(t *testing.T, data []byte, base float64) {
		xs := make([]float64, len(data)/2)
		for i := range xs {
			x := math.Float64frombits(math.Float64bits(base) + uint64(data[2*i])<<32 + uint64(data[2*i+1]&0x7f))
			if data[2*i+1]&0x80 != 0 {
				x = -x
			}
			if math.IsNaN(x) {
				t.Skip()
			}
			xs[i] = x
		}
		for _, n := range []int{len(xs), (radixMin/max(len(xs), 1) + 1) * len(xs)} {
			in := make([]geom.KPE, n)
			for i := range in {
				x := xs[i%len(xs)]
				in[i] = geom.KPE{ID: uint64(i), Rect: geom.Rect{XL: x, XH: x}}
			}
			got := slices.Clone(in)
			sortByXL(got, nil)
			checkSweepOrder(t, in, got)
		}
	})
}

// TestSortByXLRefusesHugeInputs: positions are 32-bit, so 2³² records or
// more panic, as the stripe index refuses them, and one fewer does not.
func TestSortByXLRefusesHugeInputs(t *testing.T) {
	if math.MaxInt < 1<<32 {
		t.Skip("int cannot count 2³² records here")
	}
	n := uint64(1) << 32
	checkPositions(int(n - 1))
	defer func() {
		if recover() == nil {
			t.Fatal("2³² records did not panic")
		}
	}()
	checkPositions(int(n))
}

// TestListSweepReusesScratch: the sort's key scratch and the sweep's
// status lists live in the algorithm, so a second join of inputs of the
// same size allocates nothing.
func TestListSweepReusesScratch(t *testing.T) {
	rs := datagen.Uniform(15, 1536, 0.01)
	ss := datagen.Uniform(16, 1536, 0.01)
	rc, sc := make([]geom.KPE, len(rs)), make([]geom.KPE, len(ss))
	a := &ListSweep{}
	allocs := testing.AllocsPerRun(5, func() {
		copy(rc, rs)
		copy(sc, ss)
		a.Join(rc, sc, func(geom.KPE, geom.KPE) {})
	})
	if allocs != 0 {
		t.Fatalf("a repeated join allocates %v times", allocs)
	}
}

// TestSortByXLAllocatesNothing: once keys and the radix's free-list buffer
// have grown, a second sort of an input of the same size allocates
// nothing, on either side of radixMin.
func TestSortByXLAllocatesNothing(t *testing.T) {
	for _, n := range []int{radixMin / 2, 4 * radixMin} {
		in := datagen.LARR(18, n).KPEs
		ks := make([]geom.KPE, n)
		keys := sortByXL(slices.Clone(in), nil)
		allocs := testing.AllocsPerRun(5, func() {
			copy(ks, in)
			keys = sortByXL(ks, keys)
		})
		if allocs != 0 {
			t.Errorf("n=%d: a repeated sort allocates %v times", n, allocs)
		}
	}
}

// TestSortByXLConcurrent: sorts running at once each take their own
// buffer from the radix's free list, so each ends in the sweep order
// (run under -race in ci.sh).
func TestSortByXLConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := datagen.LARR(int64(20+g), radixMin*(g+1)).KPEs
			ks := make([]geom.KPE, len(in))
			var keys []uint64
			for range 20 {
				copy(ks, in)
				keys = sortByXL(ks, keys)
				if !slices.IsSortedFunc(ks, xlOrder) {
					t.Errorf("goroutine %d: not in sweep order", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}
