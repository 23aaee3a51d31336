package quadtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/jointest"
)

func build(ks []geom.KPE, maxLevel int) *Tree {
	t := New(maxLevel)
	for _, k := range ks {
		t.Insert(k)
	}
	return t
}

func treeJoin(rs, ss []geom.KPE, maxLevel int) []geom.Pair {
	tr, ts := build(rs, maxLevel), build(ss, maxLevel)
	var out []geom.Pair
	Join(tr, ts, func(r, s geom.KPE) {
		out = append(out, geom.Pair{R: r.ID, S: s.ID})
	})
	jointest.SortPairs(out)
	return out
}

func TestLen(t *testing.T) {
	ks := datagen.Uniform(1, 100, 0.05)
	tr := build(ks, 10)
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestQueryMatchesNaive(t *testing.T) {
	ks := datagen.Uniform(2, 500, 0.05)
	tr := build(ks, 10)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		want := 0
		for _, k := range ks {
			if k.Rect.Intersects(q) {
				want++
			}
		}
		got := 0
		tr.Query(q, func(k geom.KPE) {
			if !k.Rect.Intersects(q) {
				t.Fatalf("Query returned non-intersecting %v for %v", k, q)
			}
			got++
		})
		if got != want {
			t.Fatalf("Query(%v): %d hits, want %d", q, got, want)
		}
	}
}

func TestJoinMatchesNaive(t *testing.T) {
	rs := datagen.Uniform(4, 400, 0.04)
	ss := datagen.Uniform(5, 400, 0.04)
	want := jointest.Naive(rs, ss)
	got := treeJoin(rs, ss, 10)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestJoinNoDuplicates(t *testing.T) {
	rs := datagen.LARR(6, 500).KPEs
	ss := datagen.LAST(7, 500).KPEs
	tr, ts := build(rs, 8), build(ss, 8)
	seen := make(map[geom.Pair]bool)
	Join(tr, ts, func(r, s geom.KPE) {
		p := geom.Pair{R: r.ID, S: s.ID}
		if seen[p] {
			t.Fatalf("duplicate pair %v (MX-CIF stores without replication)", p)
		}
		seen[p] = true
	})
}

func TestJoinProperty(t *testing.T) {
	f := func(seed int64, nr, ns uint8, lvl uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randKPEs(rng, int(nr)%50+1)
		ss := randKPEs(rng, int(ns)%50+1)
		maxLevel := int(lvl)%10 + 1
		want := jointest.Naive(rs, ss)
		got := treeJoin(rs, ss, maxLevel)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func randKPEs(rng *rand.Rand, n int) []geom.KPE {
	ks := make([]geom.KPE, n)
	for i := range ks {
		cx, cy := rng.Float64(), rng.Float64()
		e := rng.Float64()
		w, h := e*e*0.3, e*e*0.3
		ks[i] = geom.KPE{ID: uint64(i), Rect: geom.NewRect(cx, cy, cx+w, cy+h).ClampUnit()}
	}
	return ks
}

func TestJoinCountsTests(t *testing.T) {
	rs := datagen.Uniform(8, 100, 0.1)
	ss := datagen.Uniform(9, 100, 0.1)
	tr, ts := build(rs, 8), build(ss, 8)
	tests := Join(tr, ts, func(geom.KPE, geom.KPE) {})
	if tests <= 0 {
		t.Fatal("Join must report candidate tests")
	}
	// The tree join must do no more tests than the full cross product.
	if tests > int64(len(rs))*int64(len(ss)) {
		t.Fatalf("tree join tested %d pairs, more than nested loops", tests)
	}
}

func TestEmptyTrees(t *testing.T) {
	empty := New(8)
	full := build(datagen.Uniform(10, 50, 0.1), 8)
	for _, pair := range [][2]*Tree{{empty, full}, {full, empty}, {empty, empty}} {
		n := 0
		Join(pair[0], pair[1], func(geom.KPE, geom.KPE) { n++ })
		if n != 0 {
			t.Fatal("join with empty tree must be empty")
		}
	}
}

func TestNewClampsLevel(t *testing.T) {
	tr := New(-5)
	tr.Insert(geom.KPE{ID: 1, Rect: geom.NewRect(0.1, 0.1, 0.11, 0.11)})
	if tr.Len() != 1 {
		t.Fatal("insert after level clamp failed")
	}
	tr = New(1000) // clamped to sfc.MaxLevel
	tr.Insert(geom.KPE{ID: 1, Rect: geom.NewRect(0.5000001, 0.5000001, 0.5000002, 0.5000002)})
	if tr.Len() != 1 {
		t.Fatal("deep insert failed")
	}
}
