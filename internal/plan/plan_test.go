package plan

import (
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/estimate"
	"spatialjoin/internal/geom"
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
		SampleR: estimate.Sample(R, 500, 1),
		SampleS: estimate.Sample(S, 500, 2),
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
			{PBSM(w, DefaultDevice), measure(t, core.PBSM, R, S, mem)},
			{S3J(w, DefaultDevice), measure(t, core.S3J, R, S, mem)},
			{SSSJ(w, DefaultDevice), measure(t, core.SSSJ, R, S, mem)},
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
	ranked := Rank(w, DefaultDevice)
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
	p := PBSM(w, DefaultDevice)
	if p.Replication < 1 {
		t.Fatalf("PBSM replication %.2f below 1", p.Replication)
	}
	s := S3J(w, DefaultDevice)
	if s.Replication < 1 || s.Replication > 4 {
		t.Fatalf("S3J replication %.2f outside [1,4]", s.Replication)
	}
	if s.Passes < p.Passes {
		t.Fatal("S3J must not predict fewer passes than PBSM: both write and read every copy once")
	}
	ss := SSSJ(w, DefaultDevice)
	if ss.Replication != 1 {
		t.Fatal("SSSJ never replicates")
	}
	// Tiny memory must predict extra merge passes.
	wSmall := workload(R, R, 8<<10)
	if SSSJ(wSmall, DefaultDevice).Passes <= 4 {
		t.Fatal("external sort must add passes at tiny memory")
	}
}

func TestChooseReturnsRunnableConfig(t *testing.T) {
	R := datagen.LARR(6, 3000).KPEs
	S := datagen.LAST(7, 3000).KPEs
	mem := int64(len(R)+len(S)) * geom.KPESize / 2
	cfg := Choose(workload(R, S, mem), DefaultDevice)
	pairs, _, err := core.Collect(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("chosen config produced no results")
	}
}
