package s3j

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
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
	"spatialjoin/internal/sfc"
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
}

func TestMatchesQuadtreeReferenceJoin(t *testing.T) {
	// §4.1: S³J is the external version of the MX-CIF quadtree join, so
	// a shallow level cap changes only where rectangles sit, never the
	// result: both modes must still agree exactly with nested loops.
	R := datagen.Uniform(3, 700, 0.02)
	S := datagen.Uniform(4, 700, 0.02)
	const levels = 6
	want := jointest.Naive(R, S)
	for _, mode := range []Mode{ModeOriginal, ModeReplicate} {
		got, _ := run(t, R, S, Config{Memory: 16 << 10, Mode: mode, Levels: levels})
		jointest.AssertEqual(t, got, want)
	}
}

func TestOriginalModeProducesNoRawDuplicates(t *testing.T) {
	R := datagen.LARR(5, 1000).KPEs
	S := datagen.LAST(6, 1000).KPEs
	_, st := run(t, R, S, Config{Memory: 16 << 10, Mode: ModeOriginal})
	if st.RawResults != st.Results {
		t.Fatalf("original S³J must not produce duplicates: raw=%d results=%d",
			st.RawResults, st.Results)
	}
	if st.CopiesR != int64(len(R)) || st.CopiesS != int64(len(S)) {
		t.Fatalf("original S³J must not replicate: copies R=%d S=%d", st.CopiesR, st.CopiesS)
	}
}

func TestReplicationBoundedByFour(t *testing.T) {
	// §4.3: a rectangle is replicated in a level file at most four times.
	R := datagen.LARR(7, 2000).KPEs
	_, st := run(t, R, R, Config{Memory: 16 << 10, Mode: ModeReplicate})
	if st.CopiesR > 4*int64(len(R)) {
		t.Fatalf("replication bound violated: %d copies of %d rects", st.CopiesR, len(R))
	}
	if st.CopiesR <= int64(len(R)) {
		t.Fatalf("expected some replication, got %d copies of %d rects", st.CopiesR, len(R))
	}
}

func TestModifiedRPMSuppressesDuplicates(t *testing.T) {
	R := datagen.LARR(8, 1500).KPEs
	S := datagen.LAST(9, 1500).KPEs
	got, st := run(t, R, S, Config{Memory: 16 << 10, Mode: ModeReplicate})
	jointest.AssertEqual(t, got, jointest.Naive(R, S))
	if st.RawResults <= st.Results {
		t.Fatalf("replication must produce raw duplicates: raw=%d results=%d",
			st.RawResults, st.Results)
	}
}

func TestReplicationReducesTests(t *testing.T) {
	// The motivation of §4.3: size-based levels with replication avoid
	// testing boundary-straddling small rectangles against everything.
	R := datagen.LAST(10, 4000).KPEs
	S := datagen.LAST(11, 4000).KPEs
	_, orig := run(t, R, S, Config{Memory: 32 << 10, Mode: ModeOriginal})
	_, repl := run(t, R, S, Config{Memory: 32 << 10, Mode: ModeReplicate})
	if repl.Tests >= orig.Tests {
		t.Fatalf("replication must reduce candidate tests: %d vs %d", repl.Tests, orig.Tests)
	}
}

func TestLevelDistributionShiftsUpward(t *testing.T) {
	// In original mode, boundary straddlers sink to shallow levels; the
	// size rule pushes small rectangles to deep levels.
	R := datagen.LAST(12, 3000).KPEs
	_, orig := run(t, R, nil, Config{Memory: 16 << 10, Mode: ModeOriginal})
	_, repl := run(t, R, nil, Config{Memory: 16 << 10, Mode: ModeReplicate})
	avgLevel := func(counts []int64) float64 {
		var sum, n float64
		for l, c := range counts {
			sum += float64(l) * float64(c)
			n += float64(c)
		}
		if n == 0 {
			return 0
		}
		return sum / n
	}
	if avgLevel(repl.LevelRecordsR) <= avgLevel(orig.LevelRecordsR) {
		t.Fatalf("size-based levels must be deeper on average: %g vs %g",
			avgLevel(repl.LevelRecordsR), avgLevel(orig.LevelRecordsR))
	}
	if orig.LevelRecordsR[0] == 0 {
		t.Fatal("original mode should park boundary straddlers at level 0")
	}
}

// TestSortPhaseChargesIO: every copy is written once, by the partitioners,
// and read once, by the scan. The sort phase charges nothing at all while
// the scan can hold a cursor on every run, and when it cannot, what it
// charges is whole merge passes: it reads what it writes.
func TestSortPhaseChargesIO(t *testing.T) {
	R := datagen.LARR(17, 1500).KPEs
	S := datagen.LAST(18, 1500).KPEs
	onePass := func(st Stats) (lo, hi int64) {
		// The 49-byte volume in 1 KiB pages, plus framing and one partial
		// page per run.
		pages := (st.CopiesR + st.CopiesS) * levRecSize / 1024
		return pages, pages + pages/20 + int64(st.SortRuns)
	}
	_, fits := run(t, R, S, Config{Memory: 16 << 10, Mode: ModeReplicate})
	lo, hi := onePass(fits)
	if w := fits.PhaseIO[PhasePartition]; w.PagesWritten < lo || w.PagesWritten > hi || w.PagesRead != 0 {
		t.Fatalf("partition phase wrote %d and read %d pages, want one write pass (%d..%d) and no read", w.PagesWritten, w.PagesRead, lo, hi)
	}
	if r := fits.PhaseIO[PhaseJoin]; r.PagesRead < lo || r.PagesRead > hi || r.PagesWritten != 0 {
		t.Fatalf("join phase read %d and wrote %d pages, want one read pass (%d..%d) and no write", r.PagesRead, r.PagesWritten, lo, hi)
	}
	if fits.SortRuns < 4 || fits.SortRuns > 22 || fits.MergePasses != 0 {
		t.Fatalf("%d runs, %d merge passes: want several runs that the scan's 22 cursors hold", fits.SortRuns, fits.MergePasses)
	}
	if fits.PhaseIO[PhaseSort] != (diskio.Stats{}) {
		t.Fatalf("sort phase charged %+v although no merge was forced", fits.PhaseIO[PhaseSort])
	}

	_, forced := run(t, R, S, Config{Memory: 2 << 10, Mode: ModeReplicate})
	m := forced.PhaseIO[PhaseSort]
	if forced.SortRuns <= 22 || forced.MergePasses == 0 || m.CostUnits <= 0 {
		t.Fatalf("%d runs, %d merge passes, %g sort units: more runs than cursors must force a merge", forced.SortRuns, forced.MergePasses, m.CostUnits)
	}
	// A merged run has fewer partial pages and frames than its inputs.
	if m.PagesWritten > m.PagesRead || m.PagesWritten < m.PagesRead*9/10 {
		t.Fatalf("forced merges read %d pages and wrote %d, want whole passes", m.PagesRead, m.PagesWritten)
	}
	if forced.CopiesR != fits.CopiesR || forced.CopiesS != fits.CopiesS || forced.Results != fits.Results || forced.Tests != fits.Tests {
		t.Fatalf("the budget changed the join: %+v vs %+v", forced, fits)
	}
}

func TestExternalSortKicksInAtTinyMemory(t *testing.T) {
	R := datagen.LARR(19, 4000).KPEs
	_, small := run(t, R, R, Config{Memory: 4 << 10, Mode: ModeReplicate})
	_, large := run(t, R, R, Config{Memory: 4 << 20, Mode: ModeReplicate})
	if small.MergePasses == 0 {
		t.Fatal("tiny memory must force external merge passes")
	}
	if large.MergePasses != 0 || large.SortRuns > 2 {
		t.Fatalf("large memory should write one run per relation and merge none, got %d runs, %d passes",
			large.SortRuns, large.MergePasses)
	}
}

func TestMaxResidentTracked(t *testing.T) {
	R := datagen.LARR(20, 1000).KPEs
	_, st := run(t, R, R, Config{Memory: 16 << 10, Mode: ModeReplicate})
	if st.MaxResident <= 0 {
		t.Fatal("MaxResident must be tracked")
	}
	if st.MaxResident > int64(len(R))*2*geom.KPESize*4 {
		t.Fatalf("MaxResident %d implausibly large", st.MaxResident)
	}
}

func TestLevelsCapRespected(t *testing.T) {
	R := datagen.Uniform(21, 500, 0.001) // tiny rects want deep levels
	got, st := run(t, R, R, Config{Memory: 16 << 10, Mode: ModeReplicate, Levels: 3})
	jointest.AssertEqual(t, got, jointest.Naive(R, R))
	if len(st.LevelRecordsR) != 4 {
		t.Fatalf("level files = %d, want 4 (levels 0..3)", len(st.LevelRecordsR))
	}
}

func TestEmptyInputs(t *testing.T) {
	R := datagen.Uniform(22, 100, 0.05)
	for _, mode := range []Mode{ModeOriginal, ModeReplicate} {
		got, _ := run(t, nil, R, Config{Memory: 8 << 10, Mode: mode})
		if len(got) != 0 {
			t.Fatal("empty R must give empty join")
		}
		got, _ = run(t, R, nil, Config{Memory: 8 << 10, Mode: mode})
		if len(got) != 0 {
			t.Fatal("empty S must give empty join")
		}
	}
}

func TestModeAndPhaseStrings(t *testing.T) {
	if ModeOriginal.String() != "original" || ModeReplicate.String() != "replicate" {
		t.Fatal("mode names changed")
	}
	for i, want := range []string{"partition", "sort", "join"} {
		if Phase(i).String() != want {
			t.Fatalf("Phase(%d) = %q", i, Phase(i).String())
		}
	}
	if Phase(9).String() == "" {
		t.Error("unknown phase must still format")
	}
}

func TestDeepLevelsAndHilbertSelfJoin(t *testing.T) {
	// Deep grids with Hilbert codes on a self-join stress the heap scan's
	// interval ordering at maximum code widths.
	R := datagen.Uniform(23, 800, 0.002)
	want := jointest.Naive(R, R)
	for _, lv := range []int{16, 20, 24} {
		got, _ := run(t, R, R, Config{
			Memory: 16 << 10, Mode: ModeReplicate, Levels: lv, Curve: sfc.Hilbert,
		})
		jointest.AssertEqual(t, got, want)
	}
}

func TestLevelsClampedToMaxLevel(t *testing.T) {
	R := datagen.Uniform(24, 200, 0.01)
	got, st := run(t, R, R, Config{Memory: 16 << 10, Mode: ModeReplicate, Levels: 99})
	jointest.AssertEqual(t, got, jointest.Naive(R, R))
	if len(st.LevelRecordsR) != sfc.MaxLevel+1 {
		t.Fatalf("levels not clamped: %d files", len(st.LevelRecordsR))
	}
}

func TestSingleRectRelations(t *testing.T) {
	a := []geom.KPE{{ID: 1, Rect: geom.NewRect(0.3, 0.3, 0.7, 0.7)}}
	b := []geom.KPE{{ID: 2, Rect: geom.NewRect(0.5, 0.5, 0.9, 0.9)}}
	for _, mode := range []Mode{ModeOriginal, ModeReplicate} {
		got, _ := run(t, a, b, Config{Memory: 4 << 10, Mode: mode})
		if len(got) != 1 || got[0] != (geom.Pair{R: 1, S: 2}) {
			t.Fatalf("mode=%v: got %v", mode, got)
		}
	}
}

func TestWholeSpaceRectangle(t *testing.T) {
	// A rectangle covering the whole space lands in level 0 under both
	// rules and joins everything.
	big := []geom.KPE{{ID: 1, Rect: geom.UnitRect}}
	small := datagen.Uniform(25, 300, 0.01)
	for _, mode := range []Mode{ModeOriginal, ModeReplicate} {
		got, st := run(t, big, small, Config{Memory: 8 << 10, Mode: mode})
		if len(got) != len(small) {
			t.Fatalf("mode=%v: %d results, want %d", mode, len(got), len(small))
		}
		if st.LevelRecordsR[0] != 1 {
			t.Fatalf("mode=%v: whole-space rect not at level 0", mode)
		}
	}
}

// nestInputs builds two relations whose cells nest along whole root
// paths: for every level l of the default hierarchy, rectangles that
// cross the vertical midline of the level-l cell in the lower-left corner
// of the space (so containment assigns them level l, and their size does
// too), in groups that grow with depth. The scan therefore holds a cell
// of every level of both relations at once, and each arriving group is
// larger than all that came before it, so the arena it is appended to is
// reallocated again and again while the cells above it are still being
// joined. A second nest in the upper-right corner retires the first and
// reuses its space; uniform rectangles fill the rest.
func nestInputs() (R, S []geom.KPE, nest int) {
	rng := rand.New(rand.NewSource(42))
	mk := func(idBase uint64) []geom.KPE {
		var ks []geom.KPE
		for _, corner := range []float64{0, 1} {
			for l := 0; l <= DefaultLevels; l++ {
				s := math.Ldexp(1, -l) // cell side
				x0 := corner * (1 - s) // cell origin, on both axes
				for i := 0; i < 6*int(math.Ceil(math.Pow(1.6, float64(l)))); i++ {
					y := x0 + rng.Float64()*0.97*s
					ks = append(ks, geom.KPE{Rect: geom.NewRect(x0+0.3*s, y, x0+0.7*s, y+rng.Float64()*0.02*s)})
				}
			}
		}
		nest = len(ks) / 2
		for _, k := range datagen.Uniform(int64(idBase), 400, 0.01) {
			ks = append(ks, geom.KPE{Rect: k.Rect})
		}
		for i := range ks {
			ks[i].ID = idBase + uint64(i)
		}
		return ks
	}
	return mk(1), mk(1 << 20), nest
}

// TestScanArenaNest runs the nest of nestInputs against nested loops:
// every pair exactly once, one emission
// sequence whatever the worker count and — the run sort and the scan's
// gathering being stable — whatever the memory budget (a few runs per
// relation, more than the scan holds cursors for, one), and the resident
// high-water mark the scan had when every cell owned its slice.
func TestScanArenaNest(t *testing.T) {
	R, S, nest := nestInputs()
	want := jointest.Naive(R, S)

	// A relation is about 4 000 records of 49 bytes: a few runs, more than
	// twenty (the two lists exceed the scan's 22 cursors and are merged
	// down first), one.
	budgets := []struct{ mem, minRuns, maxRuns int64 }{
		{40 << 10, 2, 8}, {3 << 10, 20, 1 << 30}, {4 << 20, 1, 1},
	}
	// Stats.MaxResident of these inputs before the arena, per mode.
	parentResident := map[Mode]int64{ModeOriginal: 146206, ModeReplicate: 102828}
	for _, mode := range []Mode{ModeOriginal, ModeReplicate} {
		var first []geom.Pair
		for _, b := range budgets {
			mem := b.mem
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("%v/memory=%d/parallel=%d", mode, mem, workers)
				got, st := run(t, R, S, Config{Memory: mem, Mode: mode, Parallel: workers})
				if first == nil {
					first = got
				} else if !slices.Equal(got, first) {
					t.Fatalf("%s: emission sequence differs from the first run's", label)
				}
				jointest.AssertEqual(t, slices.Clone(got), want)
				if mode == ModeOriginal {
					perRun := mem / levRecSize
					runsR, runsS := (st.CopiesR+perRun-1)/perRun, (st.CopiesS+perRun-1)/perRun
					if runsR < b.minRuns || runsR > b.maxRuns || int64(st.SortRuns) != runsR+runsS || (st.MergePasses > 0) != (runsR+runsS > 22) {
						t.Fatalf("%s: %d runs (R %d + S %d by the chunk rule) and %d merge passes, want %d..%d per relation",
							label, st.SortRuns, runsR, runsS, st.MergePasses, b.minRuns, b.maxRuns)
					}
					if st.MaxResident < int64(2*nest)*geom.KPESize {
						t.Fatalf("%s: MaxResident %d, less than one whole nest of both relations (%d records)", label, st.MaxResident, 2*nest)
					}
				}
				if st.MaxResident != parentResident[mode] {
					t.Fatalf("%s: MaxResident = %d, was %d when every cell owned its slice", label, st.MaxResident, parentResident[mode])
				}
			}
		}
	}
}

// pollCtx cancels itself at the n-th Err poll (never when n == 0); every
// cancellation checkpoint of the join funnels through Err.
type pollCtx struct {
	context.Context
	polls, cancelAt atomic.Int64
}

func (c *pollCtx) Err() error {
	if n := c.polls.Add(1); c.cancelAt.Load() > 0 && n >= c.cancelAt.Load() {
		return context.Canceled
	}
	return nil
}

// TestSortAndScanCancellation cancels the join at checkpoints spread over
// its whole poll range — mid chunk fill and mid run write in the
// partitioners, between the groups of a forced merge, mid scan — at one
// and at four workers: each run must end KindCanceled in the phase it was
// in (all three phases must be hit), emit no pair twice, and leave no
// goroutine and no temp file behind.
func TestSortAndScanCancellation(t *testing.T) {
	R := datagen.LARR(31, 6000).KPEs
	S := datagen.LAST(32, 6000).KPEs
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		probe := &pollCtx{Context: context.Background()}
		cfg := Config{Disk: newDisk(), Memory: 16 << 10, Mode: ModeReplicate, Parallel: workers, Cancel: govern.NewCheck(probe)}
		firstResult := int64(0)
		st, err := Join(R, S, cfg, func(geom.Pair) {
			if firstResult == 0 {
				firstResult = probe.polls.Load()
			}
		})
		if err != nil {
			t.Fatalf("parallel=%d: probe run: %v", workers, err)
		}
		if st.SortRuns < 40 || st.MergePasses == 0 {
			t.Fatalf("parallel=%d: %d runs, %d merge passes — merges must be forced", workers, st.SortRuns, st.MergePasses)
		}
		total := probe.polls.Load()
		phases := map[string]int{}
		// The scan polls once per CheckInterval cells, far less often than
		// the sort does: sweep its range with a step of its own.
		var points []int64
		for at := int64(1); at <= firstResult; at += max(1, firstResult/32) {
			points = append(points, at)
		}
		for at := firstResult + 1; at < total; at += max(1, (total-firstResult)/16) {
			points = append(points, at)
		}
		for _, at := range points {
			ctx := &pollCtx{Context: context.Background()}
			ctx.cancelAt.Store(at)
			cfg.Cancel = govern.NewCheck(ctx)
			seen := map[geom.Pair]bool{}
			_, err := Join(R, S, cfg, func(p geom.Pair) {
				if seen[p] {
					t.Errorf("parallel=%d cancel@%d: pair %v emitted twice", workers, at, p)
				}
				seen[p] = true
			})
			if joinerr.KindOf(err) != joinerr.KindCanceled {
				t.Fatalf("parallel=%d cancel@%d of %d: got %v, want a KindCanceled error", workers, at, total, err)
			}
			var je *joinerr.JoinError
			if !errors.As(err, &je) {
				t.Fatalf("parallel=%d cancel@%d: %v is not a JoinError", workers, at, err)
			}
			phases[je.Phase]++
			if at > firstResult && je.Phase != PhaseJoin.String() {
				t.Fatalf("parallel=%d cancel@%d: phase %q after the first result (poll %d)", workers, at, je.Phase, firstResult)
			}
			if n := cfg.Disk.NumFiles(); n != 0 {
				t.Fatalf("parallel=%d cancel@%d: %d temp files left behind: %v", workers, at, n, cfg.Disk.FileNames())
			}
		}
		if phases[PhasePartition.String()] < 8 || phases[PhaseSort.String()] < 8 || phases[PhaseJoin.String()] < 8 {
			t.Fatalf("parallel=%d: cancellations by phase %v, want the partitioners, the forced merges and the scan swept", workers, phases)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines before, %d after the canceled joins", before, g)
	}
}

// sampleCtx calls sample at every poll of the join's cancellation
// checkpoint, which the partitioners, the forced merges and the scan all
// reach; it never cancels.
type sampleCtx struct {
	context.Context
	sample func()
}

func (c *sampleCtx) Err() error { c.sample(); return nil }

// TestProgressIsMonotoneAndExact watches the progress estimator through a
// join that forces merge passes and one that does not, at one and at four
// workers: the fraction never moves backwards, it is under way before the
// first result (the partitioners report every run they write), and the
// join reports exactly the cost it declared — the fraction reads exactly
// 1.0 when Join returns, without core's closing clamp.
func TestProgressIsMonotoneAndExact(t *testing.T) {
	R := datagen.LARR(33, 3000).KPEs
	S := datagen.LAST(34, 3000).KPEs
	for _, tc := range []struct {
		mem    int64
		forced bool
	}{{4 << 10, true}, {64 << 10, false}} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("memory=%d/parallel=%d", tc.mem, workers)
			reg := metrics.New()
			prog := metrics.NewProgress(reg)
			var mu sync.Mutex
			var samples []float64
			sample := func() {
				mu.Lock()
				samples = append(samples, prog.Fraction())
				mu.Unlock()
			}
			atFirstResult := -1.0
			st, err := Join(R, S, Config{
				Disk: newDisk(), Memory: tc.mem, Mode: ModeReplicate, Parallel: workers,
				Progress: prog, Cancel: govern.NewCheck(&sampleCtx{context.Background(), sample}),
			}, func(geom.Pair) {
				if atFirstResult < 0 {
					atFirstResult = prog.Fraction()
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if (st.MergePasses > 0) != tc.forced {
				t.Fatalf("%s: %d runs, %d merge passes, want forced merges: %v", label, st.SortRuns, st.MergePasses, tc.forced)
			}
			samples = append(samples, prog.Fraction())
			for i := 1; i < len(samples); i++ {
				if samples[i] < samples[i-1] {
					t.Fatalf("%s: progress moved backwards: sample %d is %v after %v", label, i, samples[i], samples[i-1])
				}
			}
			if atFirstResult <= 0.1 || atFirstResult >= 1 {
				t.Fatalf("%s: progress %v at the first result, want the partition phase behind it and the scan ahead", label, atFirstResult)
			}
			if final := prog.Fraction(); final != 1 {
				t.Fatalf("%s: progress %v when Join returned, want exactly 1", label, final)
			}
			total := reg.Gauge(metrics.JoinProgressTotal).Value()
			if base := float64(len(R)+len(S)) + float64(st.CopiesR+st.CopiesS); total < base || (total > base) != tc.forced {
				t.Fatalf("%s: declared total %v, want the %v of partition and scan plus forced-merge records only when forced", label, total, base)
			}
		}
	}
}
