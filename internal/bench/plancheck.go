package bench

import (
	"fmt"

	"spatialjoin/internal/core"
	"spatialjoin/internal/plan"
	"spatialjoin/internal/s3j"
)

// PlanRow compares the analytic I/O prediction of internal/plan with the
// measured cost for one method at one memory fraction.
type PlanRow struct {
	Method    core.Method
	MemFrac   float64
	Predicted float64
	Measured  float64
}

// Ratio returns predicted / measured.
func (r PlanRow) Ratio() float64 {
	if r.Measured == 0 {
		return 0
	}
	return r.Predicted / r.Measured
}

// SkewMemFrac is the small budget of the plan check's last row: at 5 % of
// the LA-like input the hash plan repartitioned dozens of times and the
// model, which prices one write and one read of every copy, was several
// times low; the balanced plan is what the model describes.
const SkewMemFrac = 0.05

// RunPlanCheck validates the cost model of internal/plan against
// measured runs of join J1 at the standard memory fraction — the
// optimizer-facing counterpart of Table 3 — and, for PBSM, at
// SkewMemFrac, where the input's skew decides whether the plan fits.
func RunPlanCheck(s *Suite) ([]PlanRow, *Table) {
	R, S := s.Inputs(J1)
	check := func(m core.Method, frac float64) PlanRow {
		mem := MemFrac(R, S, frac)
		w := plan.Workload{
			NR: len(R), NS: len(S),
			SampleR: plan.Sample(R, 1000, s.Seed+41),
			SampleS: plan.Sample(S, 1000, s.Seed+42),
			Memory:  mem,
		}
		cfg := core.Config{Method: m, Memory: mem}
		var pred plan.Prediction
		switch m {
		case core.PBSM:
			pred = plan.PBSM(w, paperDevice)
		case core.S3J:
			pred = plan.S3J(w, paperDevice)
			cfg.S3JMode = s3j.ModeReplicate
		case core.SSSJ:
			pred = plan.SSSJ(w, paperDevice)
		}
		return PlanRow{Method: m, MemFrac: frac, Predicted: pred.IOUnits, Measured: s.runCore(R, S, cfg).IO.CostUnits}
	}
	rows := []PlanRow{
		check(core.PBSM, LAMemFrac),
		check(core.S3J, LAMemFrac),
		check(core.SSSJ, LAMemFrac),
		check(core.PBSM, SkewMemFrac),
	}
	t := &Table{
		Title:  "Plan check: analytic I/O predictions vs measured (join J1)",
		Note:   "internal/plan ranks methods for inputs without statistics (§3.2.3); tests require PBSM within [0.8, 1.25], the others within 2x",
		Header: []string{"method", "mem (frac)", "predicted units", "measured units", "ratio"},
	}
	for _, r := range rows {
		t.AddRow(string(r.Method), fmt.Sprintf("%.2f", r.MemFrac), fmt.Sprintf("%.0f", r.Predicted),
			fmt.Sprintf("%.0f", r.Measured), fmt.Sprintf("%.2f", r.Ratio()))
	}
	return rows, t
}
