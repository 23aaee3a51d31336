package bench

import (
	"fmt"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/s3j"
	"spatialjoin/internal/sfc"
	"spatialjoin/internal/sweep"
)

// This file holds the ablation studies for the design choices DESIGN.md
// calls out; they go beyond the paper's figures but use the same harness.

// AblTilesRow measures the effect of the NT/P ratio (tiles per
// partition): more tiles smooth skew at the cost of replication, the
// trade-off behind the paper's NT ≥ P rule.
type AblTilesRow struct {
	TilesPerPartition int
	Replication       float64
	Repartitions      int
	Total             time.Duration
}

// RunAblationTiles sweeps PBSM's tiles-per-partition ratio on join J1.
func RunAblationTiles(s *Suite) ([]AblTilesRow, *Table) {
	R, S := s.Inputs(J1)
	mem := MemFrac(R, S, LAMemFrac)
	var rows []AblTilesRow
	for _, tp := range []int{1, 2, 4, 8, 16} {
		res := s.runCore(R, S, core.Config{
			Method: core.PBSM, Memory: mem, PBSMTilesPerPartition: tp,
		})
		st := res.PBSMStats
		rows = append(rows, AblTilesRow{
			TilesPerPartition: tp,
			Replication:       st.ReplicationRate(len(R), len(S)),
			Repartitions:      st.Repartitions,
			Total:             res.Total,
		})
	}
	t := &Table{
		Title:  "Ablation: PBSM tiles per partition (join J1)",
		Note:   "NT>P smooths skew (fewer repartitions) but raises replication",
		Header: []string{"NT/P", "replication", "repartitions", "total (s)"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.TilesPerPartition),
			fmt.Sprintf("%.3f", r.Replication),
			fmt.Sprintf("%d", r.Repartitions), fsec(r.Total))
	}
	return rows, t
}

// AblTuneRow measures the effect of the tuning factor t on formula (1)
// (§3.2.3): t barely above 1 risks partition pairs that just miss the
// budget and force repartitioning.
type AblTuneRow struct {
	TuneFactor   float64
	P            int
	Repartitions int
	Overflows    int
	Total        time.Duration
}

// RunAblationTune sweeps PBSM's tuning factor on join J5.
func RunAblationTune(s *Suite) ([]AblTuneRow, *Table) {
	R, S := s.Inputs(J5)
	mem := MemFrac(R, S, 0.25)
	var rows []AblTuneRow
	for _, tf := range []float64{1.001, 1.1, 1.25, 1.5, 2.0} {
		res := s.runCore(R, S, core.Config{
			Method: core.PBSM, Memory: mem, PBSMTuneFactor: tf,
		})
		st := res.PBSMStats
		rows = append(rows, AblTuneRow{
			TuneFactor:   tf,
			P:            st.P,
			Repartitions: st.Repartitions,
			Overflows:    st.MemoryOverflows,
			Total:        res.Total,
		})
	}
	t := &Table{
		Title:  "Ablation: PBSM tuning factor t on formula (1) (join J5)",
		Note:   "t just above 1 leaves pairs that barely miss the budget -> repartitioning",
		Header: []string{"t", "P", "repartitions", "overflows", "total (s)"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.3f", r.TuneFactor), fmt.Sprintf("%d", r.P),
			fmt.Sprintf("%d", r.Repartitions), fmt.Sprintf("%d", r.Overflows), fsec(r.Total))
	}
	return rows, t
}

// AblCurveRow compares Peano and Hilbert locational codes for S³J
// (§4.4.2): identical results and I/O, different code-computation cost.
type AblCurveRow struct {
	Curve     string
	Results   int64
	Tests     int64
	IOUnits   float64
	Partition time.Duration // partition-phase CPU, where codes are computed
	Total     time.Duration
}

// RunAblationCurve compares the space-filling curves on join J1.
func RunAblationCurve(s *Suite) ([]AblCurveRow, *Table) {
	R, S := s.Inputs(J1)
	mem := MemFrac(R, S, LAMemFrac)
	var rows []AblCurveRow
	for _, curve := range []sfc.Curve{sfc.Peano, sfc.Hilbert} {
		res := s.runCore(R, S, core.Config{
			Method: core.S3J, Memory: mem, S3JMode: s3j.ModeReplicate, Curve: curve,
		})
		st := res.S3JStats
		rows = append(rows, AblCurveRow{
			Curve:     curve.String(),
			Results:   res.Results,
			Tests:     st.Tests,
			IOUnits:   res.IO.CostUnits,
			Partition: st.PhaseCPU[s3j.PhasePartition],
			Total:     res.Total,
		})
	}
	t := &Table{
		Title:  "Ablation: S3J locational-code curve (join J1)",
		Note:   "§4.4.2: curve choice changes neither I/O nor tests, only code-computation CPU",
		Header: []string{"curve", "results", "tests", "I/O units", "partition CPU (s)", "total (s)"},
	}
	for _, r := range rows {
		t.AddRow(r.Curve, fint(r.Results), fint(r.Tests),
			fmt.Sprintf("%.0f", r.IOUnits), fsec(r.Partition), fsec(r.Total))
	}
	return rows, t
}

// AblDepthRow measures the interval-trie depth: too shallow degenerates
// toward a list (everything in few nodes), too deep wastes traversal.
type AblDepthRow struct {
	Depth int
	Tests int64
	Time  time.Duration
}

// RunAblationTrieDepth sweeps the trie depth joining J4 in memory.
func RunAblationTrieDepth(s *Suite) ([]AblDepthRow, *Table) {
	R, S := s.Inputs(J4)
	var rows []AblDepthRow
	for _, depth := range []int{2, 4, 8, 16, 24} {
		trie := &sweep.TrieSweep{Depth: depth}
		rc := append([]geom.KPE(nil), R...)
		sc := append([]geom.KPE(nil), S...)
		t0 := time.Now()
		trie.Join(rc, sc, func(geom.KPE, geom.KPE) {})
		rows = append(rows, AblDepthRow{Depth: depth, Tests: trie.Tests(), Time: time.Since(t0)})
	}
	t := &Table{
		Title:  "Ablation: interval-trie depth (join J4 in memory)",
		Note:   "shallow tries degenerate toward the list sweep; depth beyond resolution buys nothing",
		Header: []string{"depth", "tests", "time (s)"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Depth), fint(r.Tests), fsec(r.Time))
	}
	return rows, t
}

// AblLevelsRow measures S³J's grid-depth parameter: more levels shrink
// partitions (fewer tests) but raise replication and per-cell overhead.
type AblLevelsRow struct {
	Levels      int
	Tests       int64
	Replication float64
	IOUnits     float64
	Total       time.Duration
}

// RunAblationLevels sweeps the number of S³J levels on join J1.
func RunAblationLevels(s *Suite) ([]AblLevelsRow, *Table) {
	R, S := s.Inputs(J1)
	mem := MemFrac(R, S, LAMemFrac)
	var rows []AblLevelsRow
	for _, lv := range []int{4, 6, 8, 10, 12} {
		res := s.runCore(R, S, core.Config{
			Method: core.S3J, Memory: mem, S3JMode: s3j.ModeReplicate, S3JLevels: lv,
		})
		st := res.S3JStats
		rows = append(rows, AblLevelsRow{
			Levels:      lv,
			Tests:       st.Tests,
			Replication: st.ReplicationRate(len(R), len(S)),
			IOUnits:     res.IO.CostUnits,
			Total:       res.Total,
		})
	}
	t := &Table{
		Title:  "Ablation: S3J grid depth (join J1)",
		Note:   "deeper grids cut candidate tests until partitions bottom out",
		Header: []string{"levels", "tests", "replication", "I/O units", "total (s)"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Levels), fint(r.Tests),
			fmt.Sprintf("%.3f", r.Replication), fmt.Sprintf("%.0f", r.IOUnits), fsec(r.Total))
	}
	return rows, t
}
