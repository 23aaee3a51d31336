package bench

import (
	"fmt"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/s3j"
	"spatialjoin/internal/sweep"
)

// paperBuf is the paper's fixed buffer: every stream of the reproduction
// reads and writes in requests of this many pages, whatever M is.
const paperBuf = iocost.DefaultBufPages

// paperDevice is the device the reproduction runs on, for the predictions
// that are checked against its runs.
var paperDevice = iocost.Device{PageSize: diskio.DefaultPageSize, PT: diskio.DefaultPT, BufPages: paperBuf}

// runCore executes one configured join on the suite's experiment disk
// model and panics on configuration errors (the harness builds all
// configs itself).
func (s *Suite) runCore(R, S []geom.KPE, cfg core.Config) core.Result {
	cfg.Transfer = s.transfer()
	// The paper experiments measure the serial cost model with the
	// paper's buffer.
	cfg.Parallel = 1
	if cfg.BufPages == 0 {
		cfg.BufPages = paperBuf
	}
	res, err := core.Join(R, S, cfg, func(geom.Pair) {})
	if err != nil {
		panic(err)
	}
	return res
}

// Fig3Row compares the original PBSM (PD: sort-based duplicate removal)
// with PBSM+RPM for one join: the I/O cost split into the join phases vs.
// the duplicate-removal overhead (Figure 3a) and the total runtimes
// (Figure 3b).
type Fig3Row struct {
	Join              JoinID
	Results           int64
	IOBaseUnits       float64 // partition+repartition+join I/O (identical for both)
	IODupUnits        float64 // extra I/O of the sort-based removal; 0 for RPM
	TotalPD, TotalRPM time.Duration
}

// RunFig3 regenerates Figure 3: PBSM with sort-based duplicate removal vs.
// PBSM with the Reference Point Method on joins J1–J4 at the paper's
// 2.5 MB-equivalent memory budget, both on the paper's hash plan.
func RunFig3(s *Suite) ([]Fig3Row, *Table) {
	var rows []Fig3Row
	for _, j := range []JoinID{J1, J2, J3, J4} {
		R, S := s.Inputs(j)
		mem := MemFrac(R, S, LAMemFrac)
		pd := s.runCore(R, S, core.Config{Method: core.PBSM, Memory: mem, PBSMDup: pbsm.DupSort, PBSMHashTiles: true})
		rp := s.runCore(R, S, core.Config{Method: core.PBSM, Memory: mem, PBSMDup: pbsm.DupRPM, PBSMHashTiles: true})
		rows = append(rows, Fig3Row{
			Join:        j,
			Results:     rp.Results,
			IOBaseUnits: rp.IO.CostUnits,
			// The runs are written in the join phase and read in the dup
			// phase: the difference of the totals holds both.
			IODupUnits: pd.IO.CostUnits - rp.IO.CostUnits,
			TotalPD:    pd.Total,
			TotalRPM:   rp.Total,
		})
	}
	t := &Table{
		Title:  "Figure 3: PBSM duplicate removal — original sort (PD) vs Reference Point Method (RP)",
		Note:   "paper: RPM removes the entire dup-removal I/O overhead, which grows with the result size",
		Header: []string{"join", "results", "base I/O units", "dup-sort I/O units", "total PD (s)", "total RP (s)", "speedup"},
	}
	for _, r := range rows {
		t.AddRow(string(r.Join), fint(r.Results),
			fmt.Sprintf("%.0f", r.IOBaseUnits), fmt.Sprintf("%.0f", r.IODupUnits),
			fsec(r.TotalPD), fsec(r.TotalRPM),
			fmt.Sprintf("%.2fx", r.TotalPD.Seconds()/r.TotalRPM.Seconds()))
	}
	return rows, t
}

// Fig4Row compares the internal join algorithms applied directly in main
// memory to one join (Figure 4; the text also cites J5: trie 236 s vs.
// list 768 s).
type Fig4Row struct {
	Join                 JoinID
	ListTime, TrieTime   time.Duration
	ListTests, TrieTests int64
}

// RunFig4 regenerates Figure 4: the list-based Plane Sweep
// Intersection-Test vs. the trie-based plane sweep joining J1–J4 entirely
// in memory.
func RunFig4(s *Suite, joins []JoinID) ([]Fig4Row, *Table) {
	if joins == nil {
		joins = []JoinID{J1, J2, J3, J4}
	}
	var rows []Fig4Row
	for _, j := range joins {
		R, S := s.Inputs(j)
		row := Fig4Row{Join: j}

		list := &sweep.ListSweep{}
		rc := append([]geom.KPE(nil), R...)
		sc := append([]geom.KPE(nil), S...)
		t0 := time.Now()
		list.Join(rc, sc, func(geom.KPE, geom.KPE) {})
		row.ListTime = time.Since(t0)
		row.ListTests = list.Tests()

		trie := &sweep.TrieSweep{}
		copy(rc, R)
		copy(sc, S)
		t0 = time.Now()
		trie.Join(rc, sc, func(geom.KPE, geom.KPE) {})
		row.TrieTime = time.Since(t0)
		row.TrieTests = trie.Tests()

		rows = append(rows, row)
	}
	t := &Table{
		Title:  "Figure 4: internal join algorithms in main memory — list (L) vs trie (T)",
		Note:   "paper: trie superior on all joins, gain grows with selectivity; J5: trie 236s vs list 768s",
		Header: []string{"join", "list (s)", "trie (s)", "list tests", "trie tests", "test ratio"},
	}
	for _, r := range rows {
		t.AddRow(string(r.Join), fsec(r.ListTime), fsec(r.TrieTime),
			fint(r.ListTests), fint(r.TrieTests),
			fmt.Sprintf("%.1fx", float64(r.ListTests)/float64(r.TrieTests)))
	}
	return rows, t
}

// Fig5Row compares the list and trie sweeps under PBSM's partitioning at
// one memory budget on J5 (Figure 5). The paper's headline: list PBSM
// gets *slower* with more memory (fewer, larger partitions), the trie
// keeps improving; crossover near 30% of the input size. That curve is a
// property of one sweep over a whole partition pair, so — as Figure 4
// does — it is measured on the kernel: ListTests/TrieTests come from
// PBSM's own grid and partitions with each pair swept once, unstriped.
// The Shipped columns are the production join beside it, which stripes
// every loaded pair (pbsm/stripes.go) and flattens the list curve. Both
// run the paper's hash plan (pbsm.PlanGrid, PBSMHashTiles).
type Fig5Row struct {
	MemFrac                            float64
	PaperMB                            float64
	P                                  int
	ListTests, TrieTests               int64 // one unstriped sweep per partition pair
	ShippedList, ShippedTrie           time.Duration
	ShippedListTests, ShippedTrieTests int64
}

// pairSweepTests partitions R and S with gs and sweeps every top-level
// partition pair whole with each of the two plane sweeps, returning
// their candidate tests.
func pairSweepTests(R, S []geom.KPE, gs pbsm.GridSpec) (list, trie int64) {
	parts := make([]int, gs.Parts)
	for i := range parts {
		parts[i] = i
	}
	rs, err := pbsm.PartitionSlices(R, gs, parts, nil)
	if err != nil {
		panic(err)
	}
	ss, err := pbsm.PartitionSlices(S, gs, parts, nil)
	if err != nil {
		panic(err)
	}
	algs := [2]sweep.Algorithm{sweep.New(sweep.ListKind), sweep.New(sweep.TrieKind)}
	var rc, sc []geom.KPE
	for _, p := range parts {
		for _, a := range algs {
			// Join reorders its inputs, and at Parts == 1 the slices are
			// the suite's own.
			rc, sc = append(rc[:0], rs[p]...), append(sc[:0], ss[p]...)
			a.Join(rc, sc, func(geom.KPE, geom.KPE) {})
		}
	}
	return algs[0].Tests(), algs[1].Tests()
}

// RunFig5 regenerates Figure 5 over the given memory fractions (nil
// selects MemSweep).
func RunFig5(s *Suite, fracs []float64) ([]Fig5Row, *Table) {
	if fracs == nil {
		fracs = MemSweep
	}
	R, S := s.Inputs(J5)
	var rows []Fig5Row
	for _, f := range fracs {
		mem := MemFrac(R, S, f)
		gs := pbsm.PlanGrid(len(R), len(S), pbsm.Config{Memory: mem})
		listTests, trieTests := pairSweepTests(R, S, gs)
		list := s.runCore(R, S, core.Config{Method: core.PBSM, Memory: mem, Algorithm: sweep.ListKind, PBSMHashTiles: true})
		trie := s.runCore(R, S, core.Config{Method: core.PBSM, Memory: mem, Algorithm: sweep.TrieKind, PBSMHashTiles: true})
		rows = append(rows, Fig5Row{
			MemFrac:          f,
			PaperMB:          PaperMB(mem),
			P:                gs.Parts,
			ListTests:        listTests,
			TrieTests:        trieTests,
			ShippedList:      list.Total,
			ShippedTrie:      trie.Total,
			ShippedListTests: list.PBSMStats.Tests,
			ShippedTrieTests: trie.PBSMStats.Tests,
		})
	}
	t := &Table{
		Title: "Figure 5: PBSM list vs trie over available memory (join J5)",
		Note: "paper: list degrades beyond ~30% of input size; trie improves with memory. " +
			"kernel = one sweep per whole partition pair; shipped = the production join, which stripes every loaded pair",
		Header: []string{"mem (frac)", "mem (paper MB)", "P", "kernel list tests", "kernel trie tests",
			"shipped list (s)", "shipped trie (s)", "shipped list tests", "shipped trie tests"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.3f", r.MemFrac), fmt.Sprintf("%.1f", r.PaperMB),
			fmt.Sprintf("%d", r.P), fint(r.ListTests), fint(r.TrieTests),
			fsec(r.ShippedList), fsec(r.ShippedTrie),
			fint(r.ShippedListTests), fint(r.ShippedTrieTests))
	}
	return rows, t
}

// Fig6Row reports the fraction of PBSM's total runtime spent
// repartitioning at one memory budget (Figure 6): on the paper's hash
// plan, which is the figure's subject, and beside it on the balanced
// plan the join runs by default (the Balanced fields).
type Fig6Row struct {
	MemFrac      float64
	PaperMB      float64
	Repartitions int
	RepartFrac   float64 // repartition share of total (CPU+I/O) time
	Total        time.Duration

	BalancedRepartitions int
	BalancedRepartFrac   float64
	BalancedTotal        time.Duration
}

// repartShare is the share of res's total (CPU + simulated I/O) time the
// repartition phase took.
func repartShare(res core.Result) float64 {
	if res.Total <= 0 || res.IO.CostUnits == 0 {
		return 0
	}
	st := res.PBSMStats
	perUnit := res.IOTime.Seconds() / res.IO.CostUnits
	repart := st.PhaseCPU[pbsm.PhaseRepartition].Seconds() +
		st.PhaseIO[pbsm.PhaseRepartition].CostUnits*perUnit
	return repart / res.Total.Seconds()
}

// RunFig6 regenerates Figure 6 over the given memory fractions (nil
// selects MemSweep).
func RunFig6(s *Suite, fracs []float64) ([]Fig6Row, *Table) {
	if fracs == nil {
		fracs = MemSweep
	}
	R, S := s.Inputs(J5)
	var rows []Fig6Row
	for _, f := range fracs {
		mem := MemFrac(R, S, f)
		cfg := core.Config{Method: core.PBSM, Memory: mem, Algorithm: sweep.ListKind}
		bal := s.runCore(R, S, cfg)
		cfg.PBSMHashTiles = true
		res := s.runCore(R, S, cfg)
		rows = append(rows, Fig6Row{
			MemFrac:      f,
			PaperMB:      PaperMB(mem),
			Repartitions: res.PBSMStats.Repartitions,
			RepartFrac:   repartShare(res),
			Total:        res.Total,

			BalancedRepartitions: bal.PBSMStats.Repartitions,
			BalancedRepartFrac:   repartShare(bal),
			BalancedTotal:        bal.Total,
		})
	}
	t := &Table{
		Title: "Figure 6: share of PBSM runtime spent repartitioning (join J5)",
		Note: "paper: ~20% at very small memory, vanishing for larger memory. " +
			"hash = the paper's plan (tiles hashed onto partitions); balanced = the default plan (tiles packed by their record counts)",
		Header: []string{"mem (frac)", "mem (paper MB)", "repartitions", "repart share", "total (s)",
			"balanced repartitions", "balanced share", "balanced total (s)"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.3f", r.MemFrac), fmt.Sprintf("%.1f", r.PaperMB),
			fmt.Sprintf("%d", r.Repartitions), fmt.Sprintf("%.1f%%", 100*r.RepartFrac), fsec(r.Total),
			fmt.Sprintf("%d", r.BalancedRepartitions), fmt.Sprintf("%.1f%%", 100*r.BalancedRepartFrac), fsec(r.BalancedTotal))
	}
	return rows, t
}

// Fig11Row compares original S³J with S³J+replication at one memory
// budget on J5 (Figure 11): CPU time and total runtime.
type Fig11Row struct {
	MemFrac              float64
	PaperMB              float64
	OrigCPU, ReplCPU     time.Duration
	OrigTotal, ReplTotal time.Duration
	OrigTests, ReplTests int64
}

// RunFig11 regenerates Figure 11 over the given memory fractions (nil
// selects MemSweep).
func RunFig11(s *Suite, fracs []float64) ([]Fig11Row, *Table) {
	if fracs == nil {
		fracs = MemSweep
	}
	R, S := s.Inputs(J5)
	var rows []Fig11Row
	for _, f := range fracs {
		mem := MemFrac(R, S, f)
		orig := s.runCore(R, S, core.Config{Method: core.S3J, Memory: mem, S3JMode: s3j.ModeOriginal})
		repl := s.runCore(R, S, core.Config{Method: core.S3J, Memory: mem, S3JMode: s3j.ModeReplicate})
		rows = append(rows, Fig11Row{
			MemFrac:   f,
			PaperMB:   PaperMB(mem),
			OrigCPU:   orig.CPU,
			ReplCPU:   repl.CPU,
			OrigTotal: orig.Total,
			ReplTotal: repl.Total,
			OrigTests: orig.S3JStats.Tests,
			ReplTests: repl.S3JStats.Tests,
		})
	}
	t := &Table{
		Title:  "Figure 11: S3J original vs with replication (join J5)",
		Note:   "paper: replication ~10x less CPU, 2.5-4x lower total runtime",
		Header: []string{"mem (frac)", "mem (paper MB)", "orig CPU (s)", "repl CPU (s)", "orig total (s)", "repl total (s)", "orig tests", "repl tests"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.3f", r.MemFrac), fmt.Sprintf("%.1f", r.PaperMB),
			fsec(r.OrigCPU), fsec(r.ReplCPU), fsec(r.OrigTotal), fsec(r.ReplTotal),
			fint(r.OrigTests), fint(r.ReplTests))
	}
	return rows, t
}

// Fig12Row compares S³J's internal algorithms at one memory budget on J5
// (Figure 12): nested loops vs the list plane sweep (the trie, noted in
// §4.4.1 to be far worse for S³J's tiny partitions, is included for the
// ablation).
type Fig12Row struct {
	MemFrac                           float64
	PaperMB                           float64
	NestedTotal, ListTotal, TrieTotal time.Duration
}

// RunFig12 regenerates Figure 12 over the given memory fractions (nil
// selects MemSweep). includeTrie adds the §4.4.1 ablation series.
func RunFig12(s *Suite, fracs []float64, includeTrie bool) ([]Fig12Row, *Table) {
	if fracs == nil {
		fracs = MemSweep
	}
	R, S := s.Inputs(J5)
	var rows []Fig12Row
	for _, f := range fracs {
		mem := MemFrac(R, S, f)
		nested := s.runCore(R, S, core.Config{Method: core.S3J, Memory: mem, S3JMode: s3j.ModeReplicate, Algorithm: sweep.NestedLoopsKind})
		list := s.runCore(R, S, core.Config{Method: core.S3J, Memory: mem, S3JMode: s3j.ModeReplicate, Algorithm: sweep.ListKind})
		row := Fig12Row{MemFrac: f, PaperMB: PaperMB(mem), NestedTotal: nested.Total, ListTotal: list.Total}
		if includeTrie {
			trie := s.runCore(R, S, core.Config{Method: core.S3J, Memory: mem, S3JMode: s3j.ModeReplicate, Algorithm: sweep.TrieKind})
			row.TrieTotal = trie.Total
		}
		rows = append(rows, row)
	}
	t := &Table{
		Title:  "Figure 12: S3J internal algorithms (join J5)",
		Note:   "paper: plane sweep only slightly faster than nested loops; trie overhead prohibitive",
		Header: []string{"mem (frac)", "mem (paper MB)", "nested (s)", "list sweep (s)", "trie (s)"},
	}
	for _, r := range rows {
		trie := "-"
		if r.TrieTotal > 0 {
			trie = fsec(r.TrieTotal)
		}
		t.AddRow(fmt.Sprintf("%.3f", r.MemFrac), fmt.Sprintf("%.1f", r.PaperMB),
			fsec(r.NestedTotal), fsec(r.ListTotal), trie)
	}
	return rows, t
}

// Fig13Row compares the three methods on LA_RR(p) ⋈ LA_ST(p) (Figure 13)
// at the paper's fixed 2.5 MB-equivalent budget.
type Fig13Row struct {
	P                              int
	Results                        int64
	S3JTotal, ListTotal, TrieTotal time.Duration
}

// RunFig13 regenerates Figure 13 for p = 1..maxP (0 selects the paper's
// 10).
func RunFig13(s *Suite, maxP int) ([]Fig13Row, *Table) {
	if maxP <= 0 {
		maxP = 10
	}
	var rows []Fig13Row
	for p := 1; p <= maxP; p++ {
		R, S := s.ScaledLA(p)
		mem := MemFrac(R, S, LAMemFrac)
		sj := s.runCore(R, S, core.Config{Method: core.S3J, Memory: mem, S3JMode: s3j.ModeReplicate})
		list := s.runCore(R, S, core.Config{Method: core.PBSM, Memory: mem, Algorithm: sweep.ListKind})
		trie := s.runCore(R, S, core.Config{Method: core.PBSM, Memory: mem, Algorithm: sweep.TrieKind})
		rows = append(rows, Fig13Row{
			P:         p,
			Results:   trie.Results,
			S3JTotal:  sj.Total,
			ListTotal: list.Total,
			TrieTotal: trie.Total,
		})
	}
	t := &Table{
		Title:  "Figure 13: S3J vs PBSM(list) vs PBSM(trie) on LA_RR(p) x LA_ST(p)",
		Note:   "paper: PBSM(trie) always wins; S3J catches PBSM(list) as coverage (redundancy) grows with p",
		Header: []string{"p", "results", "S3J (s)", "PBSM list (s)", "PBSM trie (s)"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.P), fint(r.Results),
			fsec(r.S3JTotal), fsec(r.ListTotal), fsec(r.TrieTotal))
	}
	return rows, t
}

// Fig14Row compares the three methods on J5 at one memory budget
// (Figure 14).
type Fig14Row struct {
	MemFrac                        float64
	PaperMB                        float64
	S3JTotal, ListTotal, TrieTotal time.Duration
}

// RunFig14 regenerates Figure 14 over the given memory fractions (nil
// selects MemSweep).
func RunFig14(s *Suite, fracs []float64) ([]Fig14Row, *Table) {
	if fracs == nil {
		fracs = MemSweep
	}
	R, S := s.Inputs(J5)
	var rows []Fig14Row
	for _, f := range fracs {
		mem := MemFrac(R, S, f)
		sj := s.runCore(R, S, core.Config{Method: core.S3J, Memory: mem, S3JMode: s3j.ModeReplicate})
		list := s.runCore(R, S, core.Config{Method: core.PBSM, Memory: mem, Algorithm: sweep.ListKind})
		trie := s.runCore(R, S, core.Config{Method: core.PBSM, Memory: mem, Algorithm: sweep.TrieKind})
		rows = append(rows, Fig14Row{
			MemFrac:   f,
			PaperMB:   PaperMB(mem),
			S3JTotal:  sj.Total,
			ListTotal: list.Total,
			TrieTotal: trie.Total,
		})
	}
	t := &Table{
		Title:  "Figure 14: S3J vs PBSM(list) vs PBSM(trie) over available memory (join J5)",
		Note:   "paper: S3J best at small memory, PBSM(list) mid, PBSM(trie) large memory",
		Header: []string{"mem (frac)", "mem (paper MB)", "S3J (s)", "PBSM list (s)", "PBSM trie (s)"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.3f", r.MemFrac), fmt.Sprintf("%.1f", r.PaperMB),
			fsec(r.S3JTotal), fsec(r.ListTotal), fsec(r.TrieTotal))
	}
	return rows, t
}
