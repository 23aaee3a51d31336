package sweep

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/jointest"
)

// statusSweep joins two slices through the streaming Status interface
// the way SSSJ does: merge by XL, probe the other side, insert into own.
func statusSweep(kind Kind, rs, ss []geom.KPE) []geom.Pair {
	rc := append([]geom.KPE(nil), rs...)
	sc := append([]geom.KPE(nil), ss...)
	sortByXL(rc, nil)
	sortByXL(sc, nil)
	var tests, touches int64
	stR := NewStatus(kind, 0, 1, &tests, &touches)
	stS := NewStatus(kind, 0, 1, &tests, &touches)
	var out []geom.Pair
	i, j := 0, 0
	for i < len(rc) || j < len(sc) {
		if j >= len(sc) || (i < len(rc) && rc[i].Rect.XL <= sc[j].Rect.XL) {
			r := rc[i]
			i++
			stS.Probe(r, func(s geom.KPE) { out = append(out, geom.Pair{R: r.ID, S: s.ID}) })
			stR.Insert(r)
		} else {
			s := sc[j]
			j++
			stR.Probe(s, func(r geom.KPE) { out = append(out, geom.Pair{R: r.ID, S: s.ID}) })
			stS.Insert(s)
		}
	}
	jointest.SortPairs(out)
	return out
}

func TestStatusSweepMatchesOracle(t *testing.T) {
	rs := datagen.Uniform(1, 500, 0.04)
	ss := datagen.Uniform(2, 500, 0.04)
	want := jointest.Naive(rs, ss)
	for _, kind := range []Kind{ListKind, TrieKind, NestedLoopsKind} {
		got := statusSweep(kind, rs, ss)
		comparePairs(t, "status-"+string(kind), got, want)
	}
}

func TestStatusLenTracksResidency(t *testing.T) {
	var tests, touches int64
	for _, kind := range []Kind{ListKind, TrieKind} {
		st := NewStatus(kind, 0, 1, &tests, &touches)
		if st.Len() != 0 {
			t.Fatalf("%s: fresh status not empty", kind)
		}
		// Three rectangles expiring at different x.
		st.Insert(geom.KPE{ID: 1, Rect: geom.NewRect(0.0, 0.1, 0.2, 0.2)})
		st.Insert(geom.KPE{ID: 2, Rect: geom.NewRect(0.0, 0.4, 0.5, 0.5)})
		st.Insert(geom.KPE{ID: 3, Rect: geom.NewRect(0.0, 0.7, 0.9, 0.8)})
		if st.Len() != 3 {
			t.Fatalf("%s: Len = %d, want 3", kind, st.Len())
		}
		// A probe at x=0.6 must expire the first two (XH < 0.6) that it
		// visits; the trie only visits overlapping nodes, so Len is an
		// upper bound — but after a full-range probe it must be exact.
		st.Probe(geom.KPE{ID: 9, Rect: geom.NewRect(0.6, 0.0, 0.6, 1.0)}, func(geom.KPE) {})
		if st.Len() != 1 {
			t.Fatalf("%s: Len after full-range probe = %d, want 1", kind, st.Len())
		}
	}
}

func TestStatusProbeReportsOnlyOverlaps(t *testing.T) {
	var tests, touches int64
	for _, kind := range []Kind{ListKind, TrieKind} {
		st := NewStatus(kind, 0, 1, &tests, &touches)
		st.Insert(geom.KPE{ID: 1, Rect: geom.NewRect(0.0, 0.1, 1.0, 0.2)})
		st.Insert(geom.KPE{ID: 2, Rect: geom.NewRect(0.0, 0.8, 1.0, 0.9)})
		var hits []uint64
		st.Probe(geom.KPE{ID: 9, Rect: geom.NewRect(0.5, 0.15, 0.6, 0.5)}, func(k geom.KPE) {
			hits = append(hits, k.ID)
		})
		if len(hits) != 1 || hits[0] != 1 {
			t.Fatalf("%s: hits = %v, want [1]", kind, hits)
		}
	}
}

func TestStatusEquivalenceProperty(t *testing.T) {
	f := func(seed int64, nr, ns uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomKPEs(rng, int(nr)%50+1)
		ss := randomKPEs(rng, int(ns)%50+1)
		want := jointest.Naive(rs, ss)
		for _, kind := range []Kind{ListKind, TrieKind} {
			got := statusSweep(kind, rs, ss)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusNestedMapsToList(t *testing.T) {
	var tests, touches int64
	if _, ok := NewStatus(NestedLoopsKind, 0, 1, &tests, &touches).(*listStatus); !ok {
		t.Fatal("nested-loops kind must map to the list status")
	}
}

// Guard against regressions in pair ordering: statusSweep's output must
// be independent of which relation streams first on ties.
func TestStatusSweepTieBreaking(t *testing.T) {
	shared := geom.NewRect(0.5, 0.5, 0.6, 0.6)
	rs := []geom.KPE{{ID: 1, Rect: shared}}
	ss := []geom.KPE{{ID: 2, Rect: shared}}
	got := statusSweep(ListKind, rs, ss)
	if len(got) != 1 || got[0] != (geom.Pair{R: 1, S: 2}) {
		t.Fatalf("tie pair = %v", got)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Less(got[j]) })
}

// TestStatusTrieDegenerateExtentFallsBackToList: with ymax <= ymin the
// trie's key scale collapses every y to bucket 0, piling all intervals
// onto the root spine — a linear scan per probe with trie overhead on
// top. NewStatus must fall back to the list status and still produce
// the exact result set.
func TestStatusTrieDegenerateExtentFallsBackToList(t *testing.T) {
	for _, ext := range [][2]float64{{0.5, 0.5}, {0.7, 0.2}} {
		var tests, touches int64
		st := NewStatus(TrieKind, ext[0], ext[1], &tests, &touches)
		if _, ok := st.(*listStatus); !ok {
			t.Fatalf("extent [%g,%g]: got %T, want *listStatus fallback", ext[0], ext[1], st)
		}
	}

	// A healthy extent still selects the trie.
	var tests, touches int64
	if st := NewStatus(TrieKind, 0, 1, &tests, &touches); func() bool { _, ok := st.(*trieStatus); return !ok }() {
		t.Fatalf("extent [0,1]: got %T, want *trieStatus", st)
	}

	// Correctness on inputs whose rectangles all share one y-extent —
	// the workload that produces a degenerate joint extent upstream.
	rs := make([]geom.KPE, 40)
	ss := make([]geom.KPE, 40)
	for i := range rs {
		x := float64(i) / 50
		rs[i] = geom.KPE{ID: uint64(i), Rect: geom.NewRect(x, 0.5, x+0.1, 0.5)}
		ss[i] = geom.KPE{ID: uint64(100 + i), Rect: geom.NewRect(x+0.05, 0.5, x+0.12, 0.5)}
	}
	want := jointest.Naive(rs, ss)
	got := statusSweepExtent(TrieKind, 0.5, 0.5, rs, ss)
	comparePairs(t, "degenerate-trie", got, want)
}

// statusSweepExtent is statusSweep with an explicit y-extent.
func statusSweepExtent(kind Kind, ymin, ymax float64, rs, ss []geom.KPE) []geom.Pair {
	rc := append([]geom.KPE(nil), rs...)
	sc := append([]geom.KPE(nil), ss...)
	sortByXL(rc, nil)
	sortByXL(sc, nil)
	var tests, touches int64
	stR := NewStatus(kind, ymin, ymax, &tests, &touches)
	stS := NewStatus(kind, ymin, ymax, &tests, &touches)
	var out []geom.Pair
	i, j := 0, 0
	for i < len(rc) || j < len(sc) {
		if j >= len(sc) || (i < len(rc) && rc[i].Rect.XL <= sc[j].Rect.XL) {
			r := rc[i]
			i++
			stS.Probe(r, func(s geom.KPE) { out = append(out, geom.Pair{R: r.ID, S: s.ID}) })
			stR.Insert(r)
		} else {
			s := sc[j]
			j++
			stR.Probe(s, func(r geom.KPE) { out = append(out, geom.Pair{R: r.ID, S: s.ID}) })
			stS.Insert(s)
		}
	}
	jointest.SortPairs(out)
	return out
}
