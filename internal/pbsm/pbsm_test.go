package pbsm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/jointest"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/trace"
)

func newDisk() *diskio.Disk { return diskio.NewDisk(1024, 10, time.Millisecond) }

func run(t *testing.T, R, S []geom.KPE, cfg Config) ([]geom.Pair, Stats) {
	t.Helper()
	if cfg.Disk == nil {
		cfg.Disk = newDisk()
	}
	var got []geom.Pair
	st, err := Join(R, S, cfg, func(p geom.Pair) { got = append(got, p) })
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	return got, st
}

func TestConfigErrors(t *testing.T) {
	if _, err := Join(nil, nil, Config{Memory: 1}, nil); err == nil {
		t.Error("nil disk must error")
	}
	if _, err := Join(nil, nil, Config{Disk: newDisk()}, nil); err == nil {
		t.Error("zero memory must error")
	}
	// An unknown Dup value must fail validation up front, never silently
	// run RPM.
	if _, err := Join(nil, nil, Config{Disk: newDisk(), Memory: 1 << 20, Dup: DupMethod(9)}, nil); err == nil {
		t.Error("unknown Dup must error")
	} else if !strings.Contains(err.Error(), "dup(9)") {
		t.Errorf("unknown-Dup error must name the value, got %q", err)
	}
}

func TestRPMSuppressesDuplicatesNotResults(t *testing.T) {
	R := datagen.LARR(3, 1500).KPEs
	S := datagen.LAST(4, 1500).KPEs
	got, st := run(t, R, S, Config{Memory: 8 << 10, Dup: DupRPM})
	jointest.AssertEqual(t, got, jointest.Naive(R, S))
	if st.RawResults <= st.Results {
		t.Fatalf("with replication, raw results (%d) must exceed unique results (%d)",
			st.RawResults, st.Results)
	}
}

func TestSortDupRemovalChargesExtraIO(t *testing.T) {
	// Figure 3a: the sort-based removal pays I/O proportional to the
	// result size; RPM pays none.
	R := datagen.LARR(5, 2000).KPEs
	S := datagen.LAST(6, 2000).KPEs
	_, stRPM := run(t, R, S, Config{Memory: 8 << 10, Dup: DupRPM})
	_, stSort := run(t, R, S, Config{Memory: 8 << 10, Dup: DupSort})
	if u := stRPM.PhaseIO[PhaseDup].CostUnits; u != 0 {
		t.Fatalf("RPM charged %g dup-removal I/O units", u)
	}
	if u := stSort.PhaseIO[PhaseDup].CostUnits; u <= 0 {
		t.Fatal("sort-based removal must charge dup-removal I/O")
	}
	if stSort.TotalIO().CostUnits <= stRPM.TotalIO().CostUnits {
		t.Fatal("sort-based PBSM must cost more total I/O than RPM")
	}
}

// TestDupSortRunsExactlyOnce drives DupSort's runs — the chunks the join
// phase sorts and writes, and the merge that delivers them — at one, two
// and four workers against nested loops: every pair once, in strictly
// increasing order, Results counting them, and the same I/O charged at
// every worker count. The inputs are 2000 small uniform rectangles a
// side and one spanning the whole domain on each side, which meets every
// other rectangle and has a copy in every partition: about 6000 results.
func TestDupSortRunsExactlyOnce(t *testing.T) {
	whole := geom.NewRect(0, 0, 1, 1)
	R := append(datagen.Uniform(31, 2000, 0.02), geom.KPE{ID: 2000, Rect: whole})
	S := append(datagen.Uniform(32, 2000, 0.02), geom.KPE{ID: 2000, Rect: whole})
	oracle := jointest.Naive(R, S)
	const manyRuns = 8 << 10 // 512-pair chunks, a merge fan-in of 2
	for _, tc := range []struct {
		name   string
		memory int64
		// merges: MergeDown runs before the final merge; oneRun: the raw
		// result fits one chunk, which the dup phase writes as the only run.
		merges, oneRun bool
	}{
		// 7 partitions, 7 copies of the whole-domain pair, three
		// 2048-pair runs against a fan-in of 7.
		{"copies straddle a chunk boundary", 32 << 10, false, false},
		{"more runs than the fan-in", manyRuns, true, false},
		// 2 partitions, 7680-pair chunks.
		{"the result fits one chunk", 120 << 10, false, true},
	} {
		var firstIO diskio.Stats
		for _, workers := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s/parallel=%d", tc.name, workers)
			rec := trace.New()
			root := rec.Begin("join:pbsm")
			got, st := run(t, R, S, Config{Memory: tc.memory, Dup: DupSort, Parallel: workers, Trace: root})
			root.End()
			jointest.AssertEqual(t, slices.Clone(got), oracle)
			for i := 1; i < len(got); i++ {
				if !got[i-1].Less(got[i]) {
					t.Fatalf("%s: %v emitted after %v", label, got[i], got[i-1])
				}
			}
			if st.Results != int64(len(got)) {
				t.Fatalf("%s: Stats.Results = %d, emitted %d", label, st.Results, len(got))
			}
			passes := 0
			for _, sp := range rec.Spans() {
				if sp.Name == "merge-pass" {
					passes++
				}
			}
			if (passes > 0) != tc.merges {
				t.Fatalf("%s: %d merge passes", label, passes)
			}
			if st.P < 2 || st.RawResults <= st.Results {
				t.Fatalf("%s: P = %d, %d raw results for %d: no duplicates to remove", label, st.P, st.RawResults, st.Results)
			}
			// At one worker the join phase's writes are the full chunks'
			// runs; the dup phase writes the last chunk's and reads them all.
			dup, runPages := st.PhaseIO[PhaseDup], st.PhaseIO[PhaseJoin].PagesWritten
			if dup.PagesWritten == 0 || dup.PagesRead == 0 || workers == 1 && tc.oneRun != (runPages == 0) {
				t.Fatalf("%s: the dup phase wrote %d pages and read %d, the join phase wrote %d",
					label, dup.PagesWritten, dup.PagesRead, runPages)
			}
			io := st.TotalIO()
			if workers == 1 {
				firstIO = io
			} else if io != firstIO {
				t.Fatalf("%s: charged %+v, parallel=1 %+v", label, io, firstIO)
			}
		}
	}

	// A cancel in the middle of the join phase, at the poll by which an
	// uncanceled run had finished half the top pairs' planned cost: some
	// 3 500 pairs have reached the sink, so the run former has been
	// handed several 512-pair chunks. The join fails in the join phase,
	// delivers nothing, and leaves no file and no goroutine.
	before := runtime.NumGoroutine()
	for _, workers := range []int{2, 4} {
		label := fmt.Sprintf("cancel mid-join-phase/parallel=%d", workers)
		probe := &pollCtx{Context: context.Background()}
		progress := metrics.NewProgress(metrics.New())
		cfg := Config{Disk: newDisk(), Memory: manyRuns, Dup: DupSort, Parallel: workers, Cancel: govern.NewCheck(probe), Progress: progress}
		var half atomic.Int64
		cfg.Disk.SetCancel(func() error {
			if progress.Fraction() >= 0.5 {
				half.CompareAndSwap(0, probe.polls.Load())
			}
			return nil
		})
		if _, err := Join(R, S, cfg, func(geom.Pair) {}); err != nil {
			t.Fatalf("%s: probe run: %v", label, err)
		}
		ctx := &pollCtx{Context: context.Background()}
		ctx.cancelAt.Store(half.Load())
		cfg.Disk, cfg.Cancel, cfg.Progress = newDisk(), govern.NewCheck(ctx), nil
		delivered := 0
		_, err := Join(R, S, cfg, func(geom.Pair) { delivered++ })
		var je *joinerr.JoinError
		if !errors.As(err, &je) || je.Kind != joinerr.KindCanceled || je.Phase != PhaseJoin.String() {
			t.Fatalf("%s: cancel@%d: got %v, want a KindCanceled error in phase %s", label, half.Load(), err, PhaseJoin)
		}
		if delivered != 0 {
			t.Fatalf("%s: %d pairs delivered before the dup phase", label, delivered)
		}
		if n := cfg.Disk.NumFiles(); n != 0 {
			t.Fatalf("%s: %d temp files left behind", label, n)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines before, %d after the joins canceled mid-join-phase", before, g)
	}

	// A cancel in the middle of the final merge: the join fails in phase
	// 4, has delivered a strictly increasing prefix and leaves no file.
	for _, workers := range []int{1, 4} {
		label := fmt.Sprintf("cancel mid-merge/parallel=%d", workers)
		probe := &pollCtx{Context: context.Background()}
		cfg := Config{Disk: newDisk(), Memory: manyRuns, Dup: DupSort, Parallel: workers, Cancel: govern.NewCheck(probe)}
		var from int64
		if _, err := Join(R, S, cfg, func(geom.Pair) {
			if from == 0 {
				from = probe.polls.Load()
			}
		}); err != nil {
			t.Fatalf("%s: probe run: %v", label, err)
		}
		total := probe.polls.Load()
		if total-from < 16 {
			t.Fatalf("%s: only %d checkpoint polls in the final merge", label, total-from)
		}
		ctx := &pollCtx{Context: context.Background()}
		ctx.cancelAt.Store(from + (total-from)/2)
		cfg.Disk, cfg.Cancel = newDisk(), govern.NewCheck(ctx)
		var got []geom.Pair
		_, err := Join(R, S, cfg, func(p geom.Pair) { got = append(got, p) })
		var je *joinerr.JoinError
		if !errors.As(err, &je) || je.Kind != joinerr.KindCanceled || je.Phase != PhaseDup.String() {
			t.Fatalf("%s: got %v, want a KindCanceled error in phase %s", label, err, PhaseDup)
		}
		if len(got) == 0 || len(got) >= len(oracle) {
			t.Fatalf("%s: %d of %d pairs delivered, want a proper prefix", label, len(got), len(oracle))
		}
		for i := 1; i < len(got); i++ {
			if !got[i-1].Less(got[i]) {
				t.Fatalf("%s: %v emitted after %v", label, got[i], got[i-1])
			}
		}
		if n := cfg.Disk.NumFiles(); n != 0 {
			t.Fatalf("%s: %d temp files left behind", label, n)
		}
	}
}

func TestPipelining(t *testing.T) {
	// §3.1: the original PBSM produces its first result only after the
	// candidate set is completely sorted; RPM streams results.
	R := datagen.LARR(7, 2000).KPEs
	S := datagen.LAST(8, 2000).KPEs
	_, stRPM := run(t, R, S, Config{Memory: 8 << 10, Dup: DupRPM})
	_, stSort := run(t, R, S, Config{Memory: 8 << 10, Dup: DupSort})
	if stRPM.FirstResultIO >= stSort.FirstResultIO {
		t.Fatalf("RPM first result at %g I/O units, sort at %g — pipelining lost",
			stRPM.FirstResultIO, stSort.FirstResultIO)
	}
}

func TestFormulaOnePartitionCount(t *testing.T) {
	R := datagen.Uniform(9, 1000, 0.01)
	S := datagen.Uniform(10, 1000, 0.01)
	// 2000 KPEs × 41 B = 82000 B; memory 20 KiB; t = 1.25 →
	// P = ceil(1.25 × 82000 / 20480) = ceil(5.004…) = 6.
	_, st := run(t, R, S, Config{Memory: 20 << 10, TuneFactor: 1.25})
	if st.P != 6 {
		t.Fatalf("P = %d, want 6", st.P)
	}
	if st.NT < st.P {
		t.Fatalf("NT (%d) must be at least P (%d)", st.NT, st.P)
	}
}

func TestTuneFactorAddsHeadroom(t *testing.T) {
	R := datagen.Uniform(11, 1000, 0.01)
	S := datagen.Uniform(12, 1000, 0.01)
	_, stLow := run(t, R, S, Config{Memory: 20 << 10, TuneFactor: 1.01})
	_, stHigh := run(t, R, S, Config{Memory: 20 << 10, TuneFactor: 2})
	if stHigh.P <= stLow.P {
		t.Fatalf("larger t must produce more partitions: %d vs %d", stHigh.P, stLow.P)
	}
}

func TestSinglePartitionNoIO(t *testing.T) {
	R := datagen.Uniform(13, 200, 0.02)
	S := datagen.Uniform(14, 200, 0.02)
	d := newDisk()
	got, st := run(t, R, S, Config{Disk: d, Memory: 64 << 20})
	jointest.AssertEqual(t, got, jointest.Naive(R, S))
	if st.P != 1 {
		t.Fatalf("P = %d, want 1", st.P)
	}
	if io := st.TotalIO(); io.CostUnits != 0 {
		t.Fatalf("in-memory join must not do I/O, cost = %g", io.CostUnits)
	}
}

func TestReplicationCounted(t *testing.T) {
	// Large rectangles at small memory must be replicated across
	// partitions.
	R := datagen.Uniform(15, 800, 0.2)
	S := datagen.Uniform(16, 800, 0.2)
	_, st := run(t, R, S, Config{Memory: 8 << 10})
	if st.CopiesR <= int64(len(R)) || st.CopiesS <= int64(len(S)) {
		t.Fatalf("expected replication: copies R=%d S=%d", st.CopiesR, st.CopiesS)
	}
	if rr := st.ReplicationRate(len(R), len(S)); rr <= 1 {
		t.Fatalf("ReplicationRate = %g, want > 1", rr)
	}
}

func TestRepartitioningTriggersOnSkew(t *testing.T) {
	// All rectangles in one tiny corner: the grid hashes them into few
	// partitions, forcing recursive repartitioning.
	rng := rand.New(rand.NewSource(17))
	mk := func(n int) []geom.KPE {
		ks := make([]geom.KPE, n)
		for i := range ks {
			cx := rng.Float64() * 0.01
			cy := rng.Float64() * 0.01
			ks[i] = geom.KPE{ID: uint64(i), Rect: geom.NewRect(cx, cy, cx+0.001, cy+0.001)}
		}
		return ks
	}
	R, S := mk(1500), mk(1500)
	got, st := run(t, R, S, Config{Memory: 8 << 10})
	jointest.AssertEqual(t, got, jointest.Naive(R, S))
	if st.Repartitions == 0 {
		t.Fatal("skewed data at small memory must trigger repartitioning")
	}
	if st.PhaseIO[PhaseRepartition].CostUnits <= 0 {
		t.Fatal("repartitioning I/O must be charged to its phase")
	}
}

func TestRecursionCapStillCorrect(t *testing.T) {
	// Identical rectangles cannot be split apart: the recursion cap must
	// kick in and the join must still be exact.
	ks := make([]geom.KPE, 400)
	for i := range ks {
		ks[i] = geom.KPE{ID: uint64(i), Rect: geom.NewRect(0.5, 0.5, 0.500001, 0.500001)}
	}
	got, st := run(t, ks, ks, Config{Memory: 4 << 10, MaxRecurse: 2})
	jointest.AssertEqual(t, got, jointest.Naive(ks, ks))
	if st.MemoryOverflows == 0 {
		t.Fatal("expected memory overflows at the recursion cap")
	}
}

func TestPhaseAccountingSumsToTotal(t *testing.T) {
	R := datagen.LARR(20, 1000).KPEs
	S := datagen.LAST(21, 1000).KPEs
	d := newDisk()
	before := d.Stats()
	_, st := run(t, R, S, Config{Disk: d, Memory: 8 << 10, Dup: DupSort})
	delta := d.Stats().Sub(before)
	if tot := st.TotalIO(); tot.CostUnits != delta.CostUnits {
		t.Fatalf("phase I/O (%g units) does not sum to disk delta (%g)",
			tot.CostUnits, delta.CostUnits)
	}
	if st.TotalCPU() <= 0 {
		t.Fatal("CPU time must be recorded")
	}
}

func TestInputsNotMutated(t *testing.T) {
	R := datagen.Uniform(22, 300, 0.05)
	S := datagen.Uniform(23, 300, 0.05)
	rc := append([]geom.KPE(nil), R...)
	sc := append([]geom.KPE(nil), S...)
	run(t, R, S, Config{Memory: 64 << 20}) // single-partition path copies
	run(t, R, S, Config{Memory: 4 << 10})
	for i := range R {
		if R[i] != rc[i] {
			t.Fatal("R mutated")
		}
	}
	for i := range S {
		if S[i] != sc[i] {
			t.Fatal("S mutated")
		}
	}
}

func TestDupMethodString(t *testing.T) {
	if DupRPM.String() != "rpm" || DupSort.String() != "sort" {
		t.Fatal("dup method names changed")
	}
	// An out-of-range method must NOT masquerade as a real one in stats,
	// traces or bench artifacts.
	if got := DupMethod(2).String(); got != "dup(2)" {
		t.Fatalf("unknown method stringified as %q, want dup(2)", got)
	}
	if got := DupMethod(-1).String(); got != "dup(-1)" {
		t.Fatalf("unknown method stringified as %q, want dup(-1)", got)
	}
}

func TestParseDupMethod(t *testing.T) {
	for s, want := range map[string]DupMethod{"rpm": DupRPM, "sort": DupSort} {
		got, err := ParseDupMethod(s)
		if err != nil || got != want {
			t.Fatalf("ParseDupMethod(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	// The name of a deleted third method must fail like a typo.
	for _, s := range []string{"", "rmp", "RPM", "tlsp", "none"} {
		if _, err := ParseDupMethod(s); err == nil {
			t.Fatalf("ParseDupMethod(%q) must error", s)
		} else if !strings.Contains(err.Error(), "(valid: rpm, sort)") {
			t.Fatalf("ParseDupMethod(%q) error must list the valid methods, got %q", s, err)
		}
	}
}

func TestPhaseString(t *testing.T) {
	names := []string{"partition", "repartition", "join", "dup-removal"}
	for i, want := range names {
		if got := Phase(i).String(); got != want {
			t.Errorf("Phase(%d) = %q, want %q", i, got, want)
		}
	}
	if Phase(99).String() == "" {
		t.Error("unknown phase must still format")
	}
}
