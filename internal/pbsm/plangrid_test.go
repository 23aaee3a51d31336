package pbsm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/jointest"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/trace"
)

// skewInputs is an LA-like pair, the skew the planner exists for, and a
// budget of 5 % of it.
func skewInputs(n int) (R, S []geom.KPE, mem int64) {
	R, S = datagen.LARR(1, n).KPEs, datagen.LAST(2, n).KPEs
	return R, S, int64(len(R)+len(S)) * geom.KPESize / 20
}

// TestAnyTableExactlyOnce is the contract the planner rests on: scatter,
// heal path and the Reference Point Method's region test read the same
// tile→partition table, so the join is exactly-once under ANY table —
// LPT is a good one, not a special one. Arbitrary random tables, with
// partitions that own no tile at all, over the seam geometry of
// pairInputs, for the two duplicate methods that consult the table, one
// and four workers, three budgets, against nested loops.
func TestAnyTableExactlyOnce(t *testing.T) {
	R, S := pairInputs()
	oracle := jointest.Naive(R, S)
	for _, dup := range []DupMethod{DupRPM, DupSort} {
		t.Run(dup.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(23 + int64(dup)))
			for _, mem := range pairMemories {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%v/mem=%d/parallel=%d", dup, mem, workers)
					cfg := Config{Disk: newDisk(), Memory: mem, Dup: dup, MaxRecurse: 1, Parallel: workers}
					gs := PlanGrid(len(R), len(S), cfg)
					// Random tile → partition function into a random subset of
					// the partitions: whatever is left out stays empty.
					live := rng.Perm(gs.Parts)[:1+rng.Intn(gs.Parts-1)]
					gs.Assign = make([]int32, gs.NX*gs.NY)
					for tile := range gs.Assign {
						gs.Assign[tile] = int32(live[rng.Intn(len(live))])
					}
					if !gs.Valid() {
						t.Fatalf("%s: random table is not a valid spec: %v", label, gs)
					}

					got, err := joinPlanned(R, S, cfg, gs)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					jointest.AssertEqual(t, got, oracle)
				}
			}
		})
	}
}

// joinPlanned is Join with the planner's table replaced by gs, for a
// P > 1 plan.
func joinPlanned(R, S []geom.KPE, cfg Config, gs GridSpec) (got []geom.Pair, err error) {
	j := newJoiner(cfg)
	defer j.reg.Sweep()
	j.emit = func(p geom.Pair) { got = append(got, p) }
	err = j.joinPlanned(R, S, func(*trace.Span) (GridSpec, error) { return gs, nil })
	return got, err
}

// TestPlanFitsSkew: on LA-like input at 5 % memory the balanced table
// fits every partition pair into the budget — no repartitioning, no
// memory overflow — where the paper's hash plan, still reachable through
// HashTiles, does not (the fallback and Figure 6's subject keep running).
// Both plans find the same result set.
func TestPlanFitsSkew(t *testing.T) {
	R, S, mem := skewInputs(20000)
	cfg := Config{Memory: mem}
	gs, err := PlanGridFor(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hash := PlanGrid(len(R), len(S), cfg); gs.Parts != hash.Parts || gs.NX != hash.NX || gs.NY != hash.NY {
		t.Fatalf("planner changed the grid: %v, formula (1) gives %v", gs, hash)
	}
	parts := make([]int, gs.Parts)
	for i := range parts {
		parts[i] = i
	}
	slR, _ := PartitionSlices(R, gs, parts, nil)
	slS, _ := PartitionSlices(S, gs, parts, nil)
	for _, p := range parts {
		if size := int64(len(slR[p])+len(slS[p])) * geom.KPESize; size > mem {
			t.Errorf("partition %d holds %d bytes, budget %d", p, size, mem)
		}
	}

	got, st := run(t, R, S, cfg)
	if st.Repartitions != 0 || st.MemoryOverflows != 0 {
		t.Fatalf("balanced plan: %d repartitions, %d memory overflows, want none", st.Repartitions, st.MemoryOverflows)
	}
	cfg.HashTiles = true
	hashed, hst := run(t, R, S, cfg)
	if hst.Repartitions == 0 {
		t.Fatal("hash plan no longer repartitions on this input: the test lost its contrast")
	}
	if hst.P != st.P || hst.NT != st.NT {
		t.Fatalf("HashTiles changed the grid: P/NT %d/%d vs %d/%d", hst.P, hst.NT, st.P, st.NT)
	}
	if len(got) != len(hashed) || setHash(got) != setHash(hashed) {
		t.Fatalf("plans disagree: balanced %d pairs (hash %#x), hashed %d pairs (hash %#x)",
			len(got), setHash(got), len(hashed), setHash(hashed))
	}
}

// TestPlanTakesOutOfDomainCoordinates: the data space is [0,1], but
// core.Join admits any finite rectangle, and a coordinate like 1e300 has
// no int tile index of its own. Such rectangles clamp into the border
// tiles — in the planner's histogram, the scatter and the region test
// alike — and the join stays exactly-once under every duplicate method.
func TestPlanTakesOutOfDomainCoordinates(t *testing.T) {
	R, S, mem := skewInputs(4000)
	for i, r := range []geom.Rect{
		geom.NewRect(-1e300, -1e300, 1e300, 1e300),
		geom.NewRect(1e300, 1e300, 1e300, 1e300),
		geom.NewRect(-1e300, 0.4, -1e300, 0.6),
		geom.NewRect(0.4, -1e300, 0.6, 1e300),
		geom.NewRect(0.99, 0.99, 1e19, 2),
	} {
		R = append(R, geom.KPE{ID: uint64(1<<20 + i), Rect: r})
		S = append(S, geom.KPE{ID: uint64(1<<21 + i), Rect: r})
	}
	oracle := jointest.Naive(R, S)
	for _, dup := range []DupMethod{DupRPM, DupSort} {
		got, st := run(t, R, S, Config{Memory: mem, Dup: dup})
		if st.P < 2 {
			t.Fatalf("%v: test setup: P = %d, the grid is not used", dup, st.P)
		}
		jointest.AssertEqual(t, got, oracle)
	}
}

// TestPlanIndependentOfWorkers: the table, every partition file and the
// phase's I/O charge are the same at 1, 2 and 8 workers, and the files
// hold what PartitionSlices — the shard coordinator's scatter — derives
// from the same spec, so a sharded join partitions identically.
func TestPlanIndependentOfWorkers(t *testing.T) {
	R, S, mem := skewInputs(8000)
	var first GridSpec
	var firstFiles [][]byte
	var firstUnits float64
	for _, workers := range []int{1, 2, 8} {
		cfg := Config{Disk: newDisk(), Memory: mem, Parallel: workers}
		gs, err := PlanGridFor(R, S, cfg)
		if err != nil {
			t.Fatal(err)
		}
		j := newJoiner(cfg)
		j.baseR, j.baseS = R, S
		filesR, filesS, err := j.partitionPhase(gs, nil)
		if err != nil {
			t.Fatal(err)
		}
		both := slices.Concat(filesR, filesS) // R's partitions, then S's
		var files [][]byte
		for _, f := range both {
			files = append(files, slices.Clone(f.Bytes()))
		}
		units := cfg.Disk.Stats().CostUnits
		if first.Assign == nil {
			first, firstFiles, firstUnits = gs, files, units
			parts := make([]int, gs.Parts)
			for i := range parts {
				parts[i] = i
			}
			for side, ks := range [][]geom.KPE{R, S} {
				sl, err := PartitionSlices(ks, gs, parts, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range parts {
					got, err := recfile.ReadAllKPEs(nil, both[side*gs.Parts+p], 2)
					if err != nil || !slices.Equal(got, sl[p]) {
						t.Fatalf("side %d partition %d: file and PartitionSlices differ (%v)", side, p, err)
					}
				}
			}
		} else {
			if !slices.Equal(gs.Assign, first.Assign) {
				t.Fatalf("parallel=%d: table differs from parallel=1", workers)
			}
			if units != firstUnits {
				t.Fatalf("parallel=%d: partition phase charged %g units, parallel=1 %g", workers, units, firstUnits)
			}
			for i := range files {
				if !slices.Equal(files[i], firstFiles[i]) {
					t.Fatalf("parallel=%d: partition file %d differs from parallel=1", workers, i)
				}
			}
		}
		j.reg.Sweep()
	}
	if first.Parts < 2 || slices.Equal(first.Assign, PlanGrid(len(R), len(S), Config{Memory: mem}).Assign) {
		t.Fatalf("test setup: %v is not a balanced multi-partition plan", first)
	}
}

// TestHashTilesIsThePaperPlan pins what HashTiles promises the paper
// reproduction: with it set, a join's counters, total I/O units and
// emission sequence are the ones the join produced when the hash was the
// only plan there was. The constants were recorded on this input at the
// commit before the planner existed, with the paper's fixed buffer the
// reproduction runs with (BufPages 4); they change only if the hash plan
// itself does — except the sweep counts and the emission sequence inside
// a pair, which are the pair kernel's and follow its stripe rule.
func TestHashTilesIsThePaperPlan(t *testing.T) {
	R, S, mem := skewInputs(20000)
	want := Stats{P: 25, NT: 100, Results: 8449, RawResults: 8925, CopiesR: 21205, CopiesS: 20673,
		Repartitions: 51, MemoryOverflows: 2, Tests: 113182, Touches: 174101}
	const wantPhases = "partition=0/598/0/1716/7696 repartition=977/1031/3840/3928/27848 join=1427/0/5340/0/19610"
	for _, workers := range []int{1, 4} {
		got, st := run(t, R, S, Config{Memory: mem, HashTiles: true, BufPages: 4, Parallel: workers})
		seq := uint64(14695981039346656037) // FNV-1a over the pairs in emission order
		for _, p := range got {
			seq = (seq ^ p.R) * 1099511628211
			seq = (seq ^ p.S) * 1099511628211
		}
		if units := st.TotalIO().CostUnits; units != 55154 || seq != 0xfe04f32656fd73a7 {
			t.Fatalf("parallel=%d: %g cost units, sequence %#x; the hash plan charged 55154, %#x", workers, units, seq, uint64(0xfe04f32656fd73a7))
		}
		counters := Stats{P: st.P, NT: st.NT, Results: st.Results, RawResults: st.RawResults, CopiesR: st.CopiesR, CopiesS: st.CopiesS,
			Repartitions: st.Repartitions, MemoryOverflows: st.MemoryOverflows, Tests: st.Tests, Touches: st.Touches}
		if counters != want {
			t.Fatalf("parallel=%d: counters %+v, the hash plan had %+v", workers, counters, want)
		}
		// At one worker every activation charges its own phase, so the
		// split of those units over the phases is pinned too: the plan
		// and the scatter under partition, each split under repartition.
		if got := phaseIO(st.PhaseIO[:PhaseDup]); workers == 1 && got != wantPhases {
			t.Fatalf("phase I/O %s, the hash plan charged %s", got, wantPhases)
		}
	}
}

// phaseIO renders per-phase I/O as reads/writes/pages in/pages out/units,
// one phase after another.
func phaseIO(ios []diskio.Stats) string {
	var b strings.Builder
	for i, s := range ios {
		fmt.Fprintf(&b, "%s=%d/%d/%d/%d/%g ", Phase(i), s.ReadRequests, s.WriteRequests, s.PagesRead, s.PagesWritten, s.CostUnits)
	}
	return strings.TrimSpace(b.String())
}

// TestPlanIsAttributedAndVisible: the count + pack runs under a "plan"
// span inside the partition span, saying what it planned over and how
// well it fits, and a tile no table can fit is counted in the registry —
// "the plan could not fit" is read, not inferred from repartitions.
func TestPlanIsAttributedAndVisible(t *testing.T) {
	R, S, mem := skewInputs(8000)
	// A block of identical rectangles heavier than the budget, inside one
	// tile of the grid.
	for i := 0; i < int(mem/geom.KPESize)+1; i++ {
		R = append(R, geom.KPE{ID: uint64(1<<20 + i), Rect: geom.NewRect(0.501, 0.501, 0.502, 0.502)})
	}
	rec, reg := trace.New(), metrics.New()
	root := rec.Begin("join:pbsm")
	_, st := run(t, R, S, Config{Memory: mem, Trace: root, Metrics: reg})
	root.End()
	if st.Repartitions == 0 {
		t.Fatal("a tile heavier than the budget must still repartition through the fallback")
	}
	if got := reg.Snapshot().Value(metPlanOversizedTiles); got != 1 {
		t.Fatalf("%s = %g, want 1", metPlanOversizedTiles, got)
	}
	spans := rec.Spans()
	byID := make(map[int64]trace.SpanData, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	i := slices.IndexFunc(spans, func(sp trace.SpanData) bool { return sp.Name == "plan" })
	if i < 0 || byID[spans[i].Parent].Name != PhasePartition.String() {
		t.Fatalf("no plan span under the partition span: %+v", spans)
	}
	attrs := make(map[string]int64)
	for _, a := range spans[i].Attrs {
		attrs[a.Key] = a.Val
	}
	if attrs["tiles"] != int64(st.NT) || attrs["parts"] != int64(st.P) ||
		attrs["hot_tile_records"] <= mem/geom.KPESize || attrs["max_partition_bytes"] <= mem {
		t.Fatalf("plan span attrs %v on a %d-tile, %d-partition plan with a tile over %d bytes", attrs, st.NT, st.P, mem)
	}
}
