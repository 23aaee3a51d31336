package plan

import (
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/s3j"
)

// measure runs one method on the default-device disk and returns the
// actual charged I/O units.
func measure(t *testing.T, method core.Method, R, S []geom.KPE, mem int64) float64 {
	t.Helper()
	cfg := core.Config{Method: method, Memory: mem}
	if method == core.S3J {
		cfg.S3JMode = s3j.ModeReplicate
	}
	_, res, err := core.Collect(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.IO.CostUnits
}

func workload(R, S []geom.KPE, mem int64) Workload {
	return Workload{
		NR: len(R), NS: len(S),
		SampleR: Sample(R, 500, 1),
		SampleS: Sample(S, 500, 2),
		Memory:  mem,
	}
}

func TestPredictionsWithinFactorTwoOfMeasured(t *testing.T) {
	R := datagen.LARR(1, 20000).KPEs
	S := datagen.LAST(2, 20000).KPEs
	for _, frac := range []float64{0.1, 0.5} {
		mem := int64(frac * float64(int64(len(R)+len(S))*geom.KPESize))
		w := workload(R, S, mem)
		cases := []struct {
			pred Prediction
			meas float64
		}{
			{PBSM(w, iocost.DefaultDevice), measure(t, core.PBSM, R, S, mem)},
			{S3J(w, iocost.DefaultDevice), measure(t, core.S3J, R, S, mem)},
			{SSSJ(w, iocost.DefaultDevice), measure(t, core.SSSJ, R, S, mem)},
		}
		for _, c := range cases {
			ratio := c.pred.IOUnits / c.meas
			if ratio < 0.5 || ratio > 2.0 {
				t.Errorf("frac=%.1f %s: predicted %.0f units, measured %.0f (ratio %.2f)",
					frac, c.pred.Method, c.pred.IOUnits, c.meas, ratio)
			}
		}
	}
}

func TestRankMatchesMeasuredOrder(t *testing.T) {
	R := datagen.LARR(3, 15000).KPEs
	S := datagen.LAST(4, 15000).KPEs
	mem := int64(len(R)+len(S)) * geom.KPESize / 2
	w := workload(R, S, mem)
	ranked := Rank(w, iocost.DefaultDevice)
	if len(ranked) != 3 {
		t.Fatalf("rank size %d", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].IOUnits < ranked[i-1].IOUnits {
			t.Fatal("rank not sorted")
		}
	}
	// The measured cheapest method must be predicted cheapest.
	measured := map[core.Method]float64{
		core.PBSM: measure(t, core.PBSM, R, S, mem),
		core.S3J:  measure(t, core.S3J, R, S, mem),
		core.SSSJ: measure(t, core.SSSJ, R, S, mem),
	}
	bestMeasured := core.PBSM
	for m, v := range measured {
		if v < measured[bestMeasured] {
			bestMeasured = m
		}
	}
	if ranked[0].Method != bestMeasured {
		t.Fatalf("predicted winner %s, measured winner %s (pred %v, meas %v)",
			ranked[0].Method, bestMeasured, ranked, measured)
	}
}

func TestPredictionStructure(t *testing.T) {
	R := datagen.LAST(5, 5000).KPEs
	w := workload(R, R, 64<<10)
	p := PBSM(w, iocost.DefaultDevice)
	if p.Replication < 1 {
		t.Fatalf("PBSM replication %.2f below 1", p.Replication)
	}
	s := S3J(w, iocost.DefaultDevice)
	if s.Replication < 1 || s.Replication > 4 {
		t.Fatalf("S3J replication %.2f outside [1,4]", s.Replication)
	}
	if s.Passes < p.Passes {
		t.Fatal("S3J must not predict fewer passes than PBSM: both write and read every copy once")
	}
	ss := SSSJ(w, iocost.DefaultDevice)
	if ss.Replication != 1 {
		t.Fatal("SSSJ never replicates")
	}
	// Tiny memory must predict extra merge passes.
	wSmall := workload(R, R, 8<<10)
	if SSSJ(wSmall, iocost.DefaultDevice).Passes <= 4 {
		t.Fatal("external sort must add passes at tiny memory")
	}
}

// TestPBSMPredictionTakesOutOfDomainCoordinates: core admits any finite
// rectangle, so a sample may hold coordinates no tile index exists for
// (the rectangles of pbsm.TestPlanTakesOutOfDomainCoordinates, plus edges
// at exactly 0 and 1). The predictor counts tiles with the partitioner's
// own clamp, so such a rectangle overlaps at most the whole grid — the
// estimate it replaced overflowed int(v·n) and predicted 1.8e19 copies
// per record.
func TestPBSMPredictionTakesOutOfDomainCoordinates(t *testing.T) {
	var sample []geom.KPE
	for i, r := range []geom.Rect{
		geom.NewRect(-1e300, -1e300, 1e300, 1e300),
		geom.NewRect(1e300, 1e300, 1e300, 1e300),
		geom.NewRect(-1e300, 0.4, -1e300, 0.6),
		geom.NewRect(0.4, -1e300, 0.6, 1e300),
		geom.NewRect(0.99, 0.99, 1e19, 2),
		geom.NewRect(0, 0, 1, 1),
		geom.NewRect(0, 0, 0, 0),
		geom.NewRect(1, 1, 1, 1),
	} {
		sample = append(sample, geom.KPE{ID: uint64(i), Rect: r})
	}
	w := Workload{NR: 20000, NS: 20000, SampleR: sample[:4], SampleS: sample[4:], Memory: 40000 * geom.KPESize / 20}
	gs := pbsm.PlanGrid(w.NR, w.NS, pbsm.Config{Memory: w.Memory})
	if gs.Parts < 2 {
		t.Fatalf("test setup: P = %d, the grid is not used", gs.Parts)
	}
	p := PBSM(w, iocost.DefaultDevice)
	if p.Replication < 1 || p.Replication > float64(gs.NX*gs.NY) {
		t.Fatalf("replication %g outside [1, %d tiles]", p.Replication, gs.NX*gs.NY)
	}
	// Two of the eight cover the whole grid, four clamp into one border
	// tile, and the two bands span the tiles of [0.4, 0.6] in one border
	// column and in every row.
	span := func(n int) int { return int(0.6*float64(n)) - int(0.4*float64(n)) + 1 }
	want := float64(2*gs.NX*gs.NY+4+span(gs.NY)+span(gs.NX)*gs.NY) / 8
	if p.Replication != want {
		t.Fatalf("replication %g, want %g", p.Replication, want)
	}
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
