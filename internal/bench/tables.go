package bench

import (
	"fmt"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/s3j"
	"spatialjoin/internal/sweep"
)

// Table1Row describes one dataset (paper Table 1).
type Table1Row struct {
	Name     string
	Count    int
	Coverage float64
}

// RunTable1 regenerates Table 1: the experiment datasets with their
// cardinalities and coverages.
func RunTable1(s *Suite) ([]Table1Row, *Table) {
	rows := []Table1Row{
		{"LA_RR", len(s.LARR()), datagen.Coverage(s.LARR())},
		{"LA_ST", len(s.LAST()), datagen.Coverage(s.LAST())},
	}
	for _, p := range []int{2, 3, 4} {
		rr, st := s.ScaledLA(p)
		rows = append(rows,
			Table1Row{fmt.Sprintf("LA_RR(%d)", p), len(rr), datagen.Coverage(rr)},
			Table1Row{fmt.Sprintf("LA_ST(%d)", p), len(st), datagen.Coverage(st)},
		)
	}
	rows = append(rows, Table1Row{"CAL_ST", len(s.CALST()), datagen.Coverage(s.CALST())})

	t := &Table{
		Title:  "Table 1: datasets",
		Note:   "paper: LA_RR 128,971 @ 0.22 | LA_ST 131,461 @ 0.03 | CAL_ST 1,888,012 @ 0.12; (p) variants scale coverage by p^2",
		Header: []string{"dataset", "MBRs", "coverage"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, fint(int64(r.Count)), fmt.Sprintf("%.3f", r.Coverage))
	}
	return rows, t
}

// Table2Row describes one experiment join (paper Table 2).
type Table2Row struct {
	Join        JoinID
	R, S        string
	Results     int64
	Selectivity float64
}

// RunTable2 regenerates Table 2: the joins J1–J5 with result cardinality
// and selectivity (results / (|R|·|S|)).
func RunTable2(s *Suite) ([]Table2Row, *Table) {
	names := map[JoinID][2]string{
		J1: {"LA_RR", "LA_ST"},
		J2: {"LA_RR(2)", "LA_ST(2)"},
		J3: {"LA_RR(3)", "LA_ST(3)"},
		J4: {"LA_RR(4)", "LA_ST(4)"},
		J5: {"CAL_ST", "CAL_ST"},
	}
	var rows []Table2Row
	for _, j := range []JoinID{J1, J2, J3, J4, J5} {
		R, S := s.Inputs(j)
		res := s.runCore(R, S, core.Config{
			Method:    core.PBSM,
			Memory:    MemFrac(R, S, LAMemFrac),
			Algorithm: sweep.TrieKind,
		})
		rows = append(rows, Table2Row{
			Join:        j,
			R:           names[j][0],
			S:           names[j][1],
			Results:     res.Results,
			Selectivity: float64(res.Results) / (float64(len(R)) * float64(len(S))),
		})
	}
	t := &Table{
		Title:  "Table 2: experiment joins",
		Note:   "paper: J1 85,854 | J2 305,537 | J3 671,775 | J4 1,195,527 | J5 9,784,072 results",
		Header: []string{"join", "R", "S", "results", "selectivity"},
	}
	for _, r := range rows {
		t.AddRow(string(r.Join), r.R, r.S, fint(r.Results), fmt.Sprintf("%.2e", r.Selectivity))
	}
	return rows, t
}

// Table3Row reports the measured I/O volume per phase, in multiples of
// one full pass over the data handled by that phase (paper Table 3 gives
// the analytical minimum: one write pass to partition, occasional
// repartitioning for PBSM vs. ≥2 passes of sorting for S³J, one read pass
// to join).
type Table3Row struct {
	Method string
	Phase  string
	// ReadPasses and WritePasses are pages read/written divided by the
	// pages of one copy of the partitioned data.
	ReadPasses, WritePasses float64
}

// RunTable3 measures the per-phase I/O passes of PBSM (with RPM) and S³J
// (with replication) on join J1 at the paper's 2.5 MB-equivalent budget.
func RunTable3(s *Suite) ([]Table3Row, *Table) {
	R, S := s.Inputs(J1)
	mem := MemFrac(R, S, LAMemFrac)
	disk := diskio.NewDisk(0, 0, 0)

	// One pass = the replicated data volume written by the partition
	// phase (that is what later phases re-read). The PBSM rows run the
	// paper's hash plan, the "PBSM balanced" rows the default one.
	pbsmRows := func(method string, hashTiles bool) []Table3Row {
		st, err := pbsm.Join(R, S, pbsm.Config{Disk: disk, Memory: mem, HashTiles: hashTiles, BufPages: paperBuf}, func(geom.Pair) {})
		if err != nil {
			panic(err)
		}
		pass := float64((st.CopiesR + st.CopiesS) * geom.KPESize / int64(disk.PageSize()))
		var rows []Table3Row
		for _, ph := range []pbsm.Phase{pbsm.PhasePartition, pbsm.PhaseRepartition, pbsm.PhaseJoin} {
			rows = append(rows, Table3Row{method, ph.String(), passes(st.PhaseIO[ph].PagesRead, pass), passes(st.PhaseIO[ph].PagesWritten, pass)})
		}
		return rows
	}

	sst, err := s3j.Join(R, S, s3j.Config{Disk: disk, Memory: mem, Mode: s3j.ModeReplicate, BufPages: paperBuf}, func(geom.Pair) {})
	if err != nil {
		panic(err)
	}
	s3jPass := float64((sst.CopiesR + sst.CopiesS) * (geom.KPESize + 8) / int64(disk.PageSize()))

	rows := append(pbsmRows("PBSM", true), pbsmRows("PBSM balanced", false)...)
	rows = append(rows, []Table3Row{
		{"S3J", "partition", passes(sst.PhaseIO[s3j.PhasePartition].PagesRead, s3jPass), passes(sst.PhaseIO[s3j.PhasePartition].PagesWritten, s3jPass)},
		{"S3J", "sort", passes(sst.PhaseIO[s3j.PhaseSort].PagesRead, s3jPass), passes(sst.PhaseIO[s3j.PhaseSort].PagesWritten, s3jPass)},
		{"S3J", "join", passes(sst.PhaseIO[s3j.PhaseJoin].PagesRead, s3jPass), passes(sst.PhaseIO[s3j.PhaseJoin].PagesWritten, s3jPass)},
	}...)
	t := &Table{
		Title: "Table 3: I/O passes per phase (measured, join J1)",
		Note: "paper (minimum): partition 1 write | PBSM repartition occasional, S3J sort 2+ | join 1 read; " +
			"PBSM = the paper's hash plan, PBSM balanced = the default plan (tiles packed by their record counts); " +
			"S3J writes scan-order runs from the partitioner, so its sort phase is forced merge passes only " +
			"(with the paper's per-level files it measured 1.69 / 1.69 on J1)",
		Header: []string{"method", "phase", "read passes", "write passes"},
	}
	for _, r := range rows {
		t.AddRow(r.Method, r.Phase, fmt.Sprintf("%.2f", r.ReadPasses), fmt.Sprintf("%.2f", r.WritePasses))
	}
	return rows, t
}

func passes(pages int64, pass float64) float64 {
	if pass <= 0 {
		return 0
	}
	return float64(pages) / pass
}
