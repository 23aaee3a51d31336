package bench

import (
	"testing"

	"spatialjoin/internal/core"
)

// TestPlanCheckWithinFactorTwo: every prediction within 2× of the measured
// run, and PBSM's — whose plan now fits skewed input without
// repartitioning, so the model prices what runs — within [0.8, 1.25] at
// the standard and at the small, skew-exposing budget.
func TestPlanCheckWithinFactorTwo(t *testing.T) {
	s := testSuite()
	rows, _ := RunPlanCheck(s)
	if len(rows) != 4 || rows[3].Method != core.PBSM || rows[3].MemFrac != SkewMemFrac {
		t.Fatalf("expected 3 methods and PBSM's skew row, got %+v", rows)
	}
	for _, r := range rows {
		lo, hi := 0.5, 2.0
		if r.Method == core.PBSM {
			lo, hi = 0.8, 1.25
		}
		if ratio := r.Ratio(); ratio < lo || ratio > hi {
			t.Errorf("%s at %.2f: prediction off by %.2fx, want [%.2f, %.2f] (pred %.0f, meas %.0f)",
				r.Method, r.MemFrac, ratio, lo, hi, r.Predicted, r.Measured)
		}
	}
}
