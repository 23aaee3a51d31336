package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/jointest"
)

func insertAll(ks []geom.KPE) *Tree {
	t := New(0, 0)
	for _, k := range ks {
		t.Insert(k)
	}
	return t
}

func TestInsertInvariants(t *testing.T) {
	ks := datagen.Uniform(1, 2000, 0.02)
	tr := insertAll(ks)
	if tr.Len() != len(ks) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Fatalf("2000 entries must split the root, height = %d", tr.Height())
	}
}

func TestBulkInvariants(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 100, 2000} {
		ks := datagen.Uniform(2, n, 0.02)
		tr := Bulk(ks, 0, 0)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestQueryMatchesNaive(t *testing.T) {
	ks := datagen.Uniform(3, 800, 0.03)
	rng := rand.New(rand.NewSource(4))
	for _, tr := range []*Tree{insertAll(ks), Bulk(ks, 0, 0)} {
		for trial := 0; trial < 100; trial++ {
			q := geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
			want := make(map[uint64]bool)
			for _, k := range ks {
				if k.Rect.Intersects(q) {
					want[k.ID] = true
				}
			}
			got := make(map[uint64]bool)
			tr.Query(q, func(k geom.KPE) {
				if !k.Rect.Intersects(q) {
					t.Fatalf("false positive %v for %v", k, q)
				}
				if got[k.ID] {
					t.Fatalf("duplicate hit %d", k.ID)
				}
				got[k.ID] = true
			})
			if len(got) != len(want) {
				t.Fatalf("query %v: %d hits, want %d", q, len(got), len(want))
			}
		}
	}
}

func TestQueryEmptyTree(t *testing.T) {
	tr := New(0, 0)
	tr.Query(geom.UnitRect, func(geom.KPE) { t.Fatal("empty tree must not visit") })
}

func TestJoinMatchesNaive(t *testing.T) {
	rs := datagen.LARR(5, 700).KPEs
	ss := datagen.LAST(6, 700).KPEs
	want := jointest.Naive(rs, ss)
	// All four build combinations.
	builds := []struct {
		name   string
		tr, ts *Tree
	}{
		{"insert/insert", insertAll(rs), insertAll(ss)},
		{"bulk/bulk", Bulk(rs, 0, 0), Bulk(ss, 0, 0)},
		{"insert/bulk", insertAll(rs), Bulk(ss, 0, 0)},
	}
	for _, b := range builds {
		var got []geom.Pair
		Join(b.tr, b.ts, func(r, s geom.KPE) {
			got = append(got, geom.Pair{R: r.ID, S: s.ID})
		})
		jointest.AssertEqual(t, got, want)
	}
}

func TestJoinDifferentHeights(t *testing.T) {
	// A big tree against a tiny one exercises the height-difference
	// descent.
	rs := datagen.Uniform(7, 3000, 0.01)
	ss := datagen.Uniform(8, 10, 0.3)
	want := jointest.Naive(rs, ss)
	var got []geom.Pair
	Join(Bulk(rs, 0, 0), Bulk(ss, 0, 0), func(r, s geom.KPE) {
		got = append(got, geom.Pair{R: r.ID, S: s.ID})
	})
	jointest.SortPairs(got)
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	// And the mirror orientation.
	want = jointest.Naive(ss, rs)
	got = got[:0]
	Join(Bulk(ss, 0, 0), Bulk(rs, 0, 0), func(r, s geom.KPE) {
		got = append(got, geom.Pair{R: r.ID, S: s.ID})
	})
	jointest.SortPairs(got)
	if len(got) != len(want) {
		t.Fatalf("mirror: %d pairs, want %d", len(got), len(want))
	}
}

func TestJoinPrunes(t *testing.T) {
	rs := datagen.Uniform(9, 2000, 0.005)
	ss := datagen.Uniform(10, 2000, 0.005)
	tests := Join(Bulk(rs, 0, 0), Bulk(ss, 0, 0), func(geom.KPE, geom.KPE) {})
	full := int64(len(rs)) * int64(len(ss))
	if tests*4 > full {
		t.Fatalf("synchronized traversal tested %d of %d pairs — no pruning", tests, full)
	}
}

func TestJoinEmpty(t *testing.T) {
	full := Bulk(datagen.Uniform(11, 50, 0.1), 0, 0)
	empty := New(0, 0)
	if n := Join(full, empty, func(geom.KPE, geom.KPE) {}); n != 0 {
		t.Fatal("join with empty tree must do nothing")
	}
	if n := Join(empty, full, func(geom.KPE, geom.KPE) {}); n != 0 {
		t.Fatal("join with empty tree must do nothing")
	}
}

func TestIndexNestedLoopMatchesNaive(t *testing.T) {
	rs := datagen.LARR(12, 600).KPEs
	ss := datagen.LAST(13, 600).KPEs
	want := jointest.Naive(rs, ss)
	var got []geom.Pair
	IndexNestedLoop(Bulk(rs, 0, 0), ss, func(r, s geom.KPE) {
		got = append(got, geom.Pair{R: r.ID, S: s.ID})
	})
	jointest.AssertEqual(t, got, want)
}

func TestInsertProperty(t *testing.T) {
	f := func(seed int64, nMod uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nMod)%500 + 1
		tr := New(0, 0)
		ks := make([]geom.KPE, n)
		for i := range ks {
			cx, cy := rng.Float64(), rng.Float64()
			w, h := rng.Float64()*0.1, rng.Float64()*0.1
			ks[i] = geom.KPE{ID: uint64(i), Rect: geom.NewRect(cx, cy, cx+w, cy+h).ClampUnit()}
			tr.Insert(ks[i])
		}
		if tr.Len() != n || tr.Check() != nil {
			return false
		}
		// Every inserted rectangle must be findable by its own extent.
		for _, k := range ks {
			found := false
			tr.Query(k.Rect, func(got geom.KPE) {
				if got.ID == k.ID {
					found = true
				}
			})
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBulkJoinProperty(t *testing.T) {
	f := func(seed int64, nr, ns uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n int) []geom.KPE {
			ks := make([]geom.KPE, n)
			for i := range ks {
				cx, cy := rng.Float64(), rng.Float64()
				e := rng.Float64()
				ks[i] = geom.KPE{ID: uint64(i), Rect: geom.NewRect(cx, cy, cx+e*e*0.3, cy+e*e*0.3).ClampUnit()}
			}
			return ks
		}
		rs := mk(int(nr)%80 + 1)
		ss := mk(int(ns)%80 + 1)
		want := jointest.Naive(rs, ss)
		var got []geom.Pair
		Join(Bulk(rs, 0, 0), Bulk(ss, 0, 0), func(r, s geom.KPE) {
			got = append(got, geom.Pair{R: r.ID, S: s.ID})
		})
		jointest.SortPairs(got)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestNewClampsParameters(t *testing.T) {
	tr := New(-1, -1)
	if tr.max != DefaultMaxEntries {
		t.Fatalf("max = %d", tr.max)
	}
	if tr.min < 2 || tr.min > tr.max/2 {
		t.Fatalf("min = %d out of range", tr.min)
	}
	tr = New(100, 8) // min > max/2 must be fixed up
	if tr.min > tr.max/2 {
		t.Fatalf("min %d > max/2 %d", tr.min, tr.max/2)
	}
}
