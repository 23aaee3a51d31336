package sweep

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/jointest"
)

// statusSweep joins two slices through two NewStatus statuses over the
// unit data space, the way SSSJ does.
func statusSweep(kind Kind, rs, ss []geom.KPE) []geom.Pair {
	return statusSweepExtent(kind, 0, 1, rs, ss)
}

// statusSweepExtent is statusSweep with an explicit y-extent.
func statusSweepExtent(kind Kind, ymin, ymax float64, rs, ss []geom.KPE) []geom.Pair {
	var tests, touches int64
	return sweepStatuses(rs, ss, NewStatus(kind, ymin, ymax, &tests, &touches), NewStatus(kind, ymin, ymax, &tests, &touches))
}

// sweepStatuses joins copies of rs and ss in the package's one plane
// sweep through the statuses stR and stS, and returns the pairs sorted.
func sweepStatuses(rs, ss []geom.KPE, stR, stS *Status) []geom.Pair {
	rc := append([]geom.KPE(nil), rs...)
	sc := append([]geom.KPE(nil), ss...)
	sortByXL(rc, nil)
	sortByXL(sc, nil)
	var out []geom.Pair
	planeSweep(rc, sc, stR, stS, func(r, s geom.KPE) { out = append(out, geom.Pair{R: r.ID, S: s.ID}) })
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
		st.Probe(geom.KPE{ID: 9, Rect: geom.NewRect(0.6, 0.0, 0.6, 1.0)}, false, func(geom.KPE, geom.KPE) {})
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
		for _, probeIsS := range []bool{false, true} {
			var hits []geom.Pair
			st.Probe(geom.KPE{ID: 9, Rect: geom.NewRect(0.5, 0.15, 0.6, 0.5)}, probeIsS, func(r, s geom.KPE) {
				hits = append(hits, geom.Pair{R: r.ID, S: s.ID})
			})
			want := geom.Pair{R: 9, S: 1}
			if probeIsS {
				want = geom.Pair{R: 1, S: 9}
			}
			if len(hits) != 1 || hits[0] != want {
				t.Fatalf("%s, probeIsS %v: hits = %v, want [%v]", kind, probeIsS, hits, want)
			}
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
	if NewStatus(NestedLoopsKind, 0, 1, &tests, &touches).root != nil {
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
		if NewStatus(TrieKind, ext[0], ext[1], &tests, &touches).root != nil {
			t.Fatalf("extent [%g,%g]: got a trie, want the list fallback", ext[0], ext[1])
		}
	}

	// A healthy extent still selects the trie.
	var tests, touches int64
	if NewStatus(TrieKind, 0, 1, &tests, &touches).root == nil {
		t.Fatal("extent [0,1]: got the list, want a trie")
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

// TestStatusProbeAllocatesNothing: a probe reports its hits through the
// caller's emit, so in neither organization does it allocate.
func TestStatusProbeAllocatesNothing(t *testing.T) {
	for _, kind := range []Kind{ListKind, TrieKind} {
		var tests, touches int64
		st := NewStatus(kind, 0, 1, &tests, &touches)
		for _, k := range datagen.Uniform(23, 200, 0.1) {
			st.Insert(k)
		}
		hits := 0
		emit := func(geom.KPE, geom.KPE) { hits++ }
		// At x = 0 nothing expires, so every run reports the same hits.
		probe := geom.KPE{ID: 1 << 20, Rect: geom.NewRect(0, 0.2, 0, 0.6)}
		if allocs := testing.AllocsPerRun(10, func() { st.Probe(probe, true, emit) }); allocs != 0 || hits == 0 {
			t.Fatalf("%s: a probe reporting %d hits allocates %v times", kind, hits, allocs)
		}
	}
}

// fuzzCoords are the edges that stress a sweep: both zeros, a subnormal,
// the unit square's seams and corners, and values outside it.
var fuzzCoords = []float64{math.Copysign(0, -1), 0, 5e-324, 0.25, 0.5, 0.75, 1, -1, 2.5}

// fuzzCoord decodes one byte: the low half of the range picks from
// fuzzCoords, so edges tie exactly and often, and the high half is a
// 1/32 grid over [−1, 3).
func fuzzCoord(b byte) float64 {
	if b < 128 {
		return fuzzCoords[int(b)%len(fuzzCoords)]
	}
	return float64(b-128)/32 - 1
}

// FuzzPlaneSweep joins arbitrary rectangles with ListSweep, TrieSweep and
// the streaming sweep over NewStatus (list, trie, and trie over a
// degenerate y-extent, which falls back to the list) and over a trie whose
// degenerate extent puts every key on one spine; each must report the
// nested-loops result. Five bytes make one rectangle: its relation, then
// its corners. Right edges equal to a later left edge test the strict
// expiry, and zero widths and heights, shared y-edges and ±0 come often.
func FuzzPlaneSweep(f *testing.F) {
	f.Add([]byte{0, 1, 3, 4, 5, 1, 4, 3, 5, 6}) // s's left edge is r's right edge
	f.Add([]byte{0, 0, 4, 0, 4, 1, 1, 4, 1, 4, 0, 2, 2, 6, 2})
	f.Add([]byte{0, 0, 1, 1, 6, 1, 1, 0, 0, 6, 1, 7, 7, 8, 8, 0, 128, 160, 192, 224})
	f.Add([]byte{0, 7, 3, 8, 3, 1, 8, 3, 7, 5, 0, 130, 140, 130, 150, 1, 130, 150, 170, 140})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rs, ss []geom.KPE
		for i := 0; i+5 <= len(data); i += 5 {
			k := geom.KPE{ID: uint64(i / 5), Rect: geom.NewRect(fuzzCoord(data[i+1]), fuzzCoord(data[i+2]), fuzzCoord(data[i+3]), fuzzCoord(data[i+4]))}
			if data[i]&1 == 0 {
				rs = append(rs, k)
			} else {
				ss = append(ss, k)
			}
		}
		want := collect(&NestedLoops{}, rs, ss)
		var tests, touches int64
		for _, got := range []struct {
			name  string
			pairs []geom.Pair
		}{
			{"list", collect(&ListSweep{}, rs, ss)},
			{"trie", collect(&TrieSweep{}, rs, ss)},
			{"status-list", statusSweep(ListKind, rs, ss)},
			{"status-trie", statusSweep(TrieKind, rs, ss)},
			{"status-trie-degenerate", statusSweepExtent(TrieKind, 0.5, 0.5, rs, ss)},
			{"trie-spine", sweepStatuses(rs, ss, newTrieStatus(0.5, 0.5, 0, &tests, &touches), newTrieStatus(0.5, 0.5, 0, &tests, &touches))},
		} {
			comparePairs(t, got.name, got.pairs, want)
		}
	})
}
