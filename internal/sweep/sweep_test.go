package sweep

import (
	"math/rand"
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

func TestTestsCounterAdvancesAndResets(t *testing.T) {
	rs := datagen.Uniform(7, 100, 0.1)
	ss := datagen.Uniform(8, 100, 0.1)
	for _, a := range allAlgorithms() {
		collect(a, rs, ss)
		if a.Tests() == 0 {
			t.Errorf("%s: Tests() = 0 after a join", a.Name())
		}
		a.ResetTests()
		if a.Tests() != 0 {
			t.Errorf("%s: ResetTests did not zero", a.Name())
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
	if New("unknown").Name() != "list" {
		t.Error("default must be list")
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
