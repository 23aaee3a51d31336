package bench

import (
	"fmt"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/s3j"
	"spatialjoin/internal/trace"
)

// PhasesRun is one instrumented join: its Result, the recorder that
// captured the span tree, so callers (cmd/sjbench) can export the trace
// in any of the trace package's formats, and the registry that holds the
// join's counts.
type PhasesRun struct {
	Name string
	Res  core.Result
	Rec  *trace.Recorder
	Reg  *metrics.Registry
}

// RunPhases runs one PBSM and one S³J join of two n-rectangle uniform
// relations with a trace recorder attached and reports, per join, the
// wall time and I/O of every top-level phase span — the observability
// counterpart of Table 3's analytic I/O-pass accounting. n < 1 selects
// 10,000 (the acceptance scale). dup selects the PBSM run's duplicate
// method (sjbench -dup), so the phase tree of any point on the dup axis
// can be inspected.
func RunPhases(s *Suite, n int, dup pbsm.DupMethod) ([]PhasesRun, *Table) {
	if n < 1 {
		n = 10000
	}
	R := datagen.Uniform(s.Seed+41, n, 0.002)
	S := datagen.Uniform(s.Seed+42, n, 0.002)
	mem := MemFrac(R, S, 0.25)

	runs := []PhasesRun{
		{Name: "PBSM", Rec: trace.New(), Reg: metrics.New()},
		{Name: "S3J", Rec: trace.New(), Reg: metrics.New()},
	}
	cfgs := []core.Config{
		// runCore's Parallel 1 keeps the span trees serial-shaped (one
		// activation per phase, no worker child spans).
		{Method: core.PBSM, Memory: mem, PBSMDup: dup},
		{Method: core.S3J, Memory: mem, S3JMode: s3j.ModeReplicate},
	}
	for i := range runs {
		cfg := cfgs[i]
		cfg.Trace, cfg.Metrics = runs[i].Rec, runs[i].Reg
		runs[i].Res = s.runCore(R, S, cfg)
	}

	tab := &Table{
		Title: "Phase trees — instrumented PBSM and S³J runs",
		Note: fmt.Sprintf("uniform %d x %d rectangles, M = %.1f paper-MB; spans of the trace recorder",
			n, n, PaperMB(mem)),
		Header: []string{"method", "phase", "wall (s)", "% of join", "reads", "writes", "pages r", "pages w", "records"},
	}
	for _, r := range runs {
		spans := r.Rec.Spans()
		var root *trace.SpanData
		for i := range spans {
			if spans[i].Parent == 0 && !spans[i].Instant {
				root = &spans[i]
				break
			}
		}
		if root == nil {
			continue
		}
		addRow := func(sd *trace.SpanData, name string) {
			pct := 0.0
			if root.Dur > 0 {
				pct = 100 * float64(sd.Dur) / float64(root.Dur)
			}
			tab.AddRow(r.Name, name, fsec(sd.Dur), fmt.Sprintf("%.1f", pct),
				fint(sd.IO.ReadRequests), fint(sd.IO.WriteRequests),
				fint(sd.IO.PagesRead), fint(sd.IO.PagesWritten), fint(sd.Records))
		}
		addRow(root, root.Name)
		for i := range spans {
			if spans[i].Parent == root.ID && !spans[i].Instant {
				addRow(&spans[i], "  "+spans[i].Name)
			}
		}
	}
	return runs, tab
}
