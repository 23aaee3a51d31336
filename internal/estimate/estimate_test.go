package estimate

import (
	"math"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
)

func naiveCount(rs, ss []geom.KPE) int {
	n := 0
	for _, r := range rs {
		for _, s := range ss {
			if r.Rect.Intersects(s.Rect) {
				n++
			}
		}
	}
	return n
}

func TestSampleBasics(t *testing.T) {
	ks := datagen.Uniform(1, 1000, 0.05)
	s := Sample(ks, 100, 42)
	if len(s) != 100 {
		t.Fatalf("sample size %d", len(s))
	}
	// Deterministic.
	s2 := Sample(ks, 100, 42)
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("sampling not deterministic")
		}
	}
	// No duplicates (IDs unique in the input).
	seen := make(map[uint64]bool)
	for _, k := range s {
		if seen[k.ID] {
			t.Fatal("sample drew an element twice")
		}
		seen[k.ID] = true
	}
	if len(Sample(ks, 2000, 1)) != len(ks) {
		t.Fatal("oversized sample must return the input")
	}
	if Sample(ks, 0, 1) != nil {
		t.Fatal("empty sample must be nil")
	}
}

func TestJoinCardinalityAccuracy(t *testing.T) {
	R := datagen.LARR(2, 8000).KPEs
	S := datagen.LAST(3, 8000).KPEs
	truth := float64(naiveCount(R, S))
	if truth == 0 {
		t.Fatal("bad test data")
	}
	// Average a few sample estimates: individual draws are noisy, the
	// estimator must be unbiased to within sampling error.
	var sum float64
	const trials = 8
	for seed := int64(0); seed < trials; seed++ {
		sr := Sample(R, 1500, seed)
		ss := Sample(S, 1500, seed+100)
		sum += JoinCardinality(sr, ss, len(R), len(S))
	}
	est := sum / trials
	if est < truth/3 || est > truth*3 {
		t.Fatalf("estimate %.0f too far from truth %.0f", est, truth)
	}
}

func TestSelectivityMatchesDefinition(t *testing.T) {
	R := datagen.Uniform(4, 500, 0.05)
	S := datagen.Uniform(5, 500, 0.05)
	// Full "sample": the estimate must be exact.
	sel := Selectivity(R, S, len(R), len(S))
	want := float64(naiveCount(R, S)) / (float64(len(R)) * float64(len(S)))
	if math.Abs(sel-want) > 1e-12 {
		t.Fatalf("selectivity %g, want %g", sel, want)
	}
	if Selectivity(nil, S, 0, len(S)) != 0 {
		t.Fatal("empty relation selectivity must be 0")
	}
}

func TestReplicationRateGrowsWithGridResolution(t *testing.T) {
	ks := datagen.LARR(6, 3000).KPEs
	coarse := ReplicationRate(ks, 4, 4)
	fine := ReplicationRate(ks, 64, 64)
	if coarse < 1 || fine < coarse {
		t.Fatalf("replication must grow with resolution: %g -> %g", coarse, fine)
	}
	if ReplicationRate(nil, 8, 8) != 1 {
		t.Fatal("empty sample must estimate rate 1")
	}
}

func TestReplicationRateExactOnKnownRect(t *testing.T) {
	// One rect covering exactly 2x3 tiles of a 10x10 grid.
	ks := []geom.KPE{{Rect: geom.NewRect(0.05, 0.05, 0.15, 0.25)}}
	if r := ReplicationRate(ks, 10, 10); r != 6 {
		t.Fatalf("rate = %g, want 6", r)
	}
}
