package pbsm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/sweep"
)

// seamSide is the size of each adversarial relation: two of them make
// 12000 records, which is K = 4 stripes with seams at 0.25, 0.5 and 0.75
// — all exact in binary, so "an edge on the seam" is on the seam.
const seamSide = 6000

// seamInputs builds two relations around the seams of a K = 4 stripe
// layout: edges exactly on i/K, zero-height rectangles lying on a seam,
// YL == 0 and YH == 1, one rectangle spanning the whole domain per side,
// a block of identical rectangles that makes one stripe hot, and random
// filler snapped to a 1/64 lattice so coincident edges abound.
func seamInputs(t *testing.T) (R, S []geom.KPE) {
	t.Helper()
	if k := stripeCount(2 * seamSide); k != 4 {
		t.Fatalf("test geometry assumes K = 4, stripeCount gives %d", k)
	}
	rng := rand.New(rand.NewSource(12))
	seams := []float64{0, 0.25, 0.5, 0.75, 1}
	build := func(hot int, hotRect geom.Rect) []geom.KPE {
		var ks []geom.KPE
		add := func(xl, yl, xh, yh float64) {
			ks = append(ks, geom.KPE{ID: uint64(len(ks)), Rect: geom.NewRect(xl, yl, xh, yh)})
		}
		add(0, 0, 1, 1) // the whole domain: a copy in every stripe
		for _, y := range seams {
			for i := 0; i < 12; i++ {
				x := rng.Float64() * 0.9
				h := rng.Float64() * 0.3
				add(x, y, x+0.05, min(1, y+h)) // bottom edge on the seam
				add(x, max(0, y-h), x+0.05, y) // top edge on the seam
				add(x, y, x+0.05, y)           // zero height, on the seam
				add(x, y, x, y)                // a point on the seam
			}
		}
		for i := 0; i < hot; i++ {
			add(hotRect.XL, hotRect.YL, hotRect.XH, hotRect.YH)
		}
		for len(ks) < seamSide {
			x := float64(rng.Intn(64)) / 64
			y := float64(rng.Intn(64)) / 64
			w := float64(rng.Intn(3)) / 64
			h := float64(rng.Intn(3)) / 64
			add(x, y, min(1, x+w), min(1, y+h))
		}
		return ks
	}
	// 2000 × 100 identical rectangles inside stripe 1, overlapping.
	R = build(2000, geom.NewRect(0.40, 0.30, 0.42, 0.32))
	S = build(100, geom.NewRect(0.41, 0.31, 0.43, 0.33))
	return R, S
}

// checkExactlyOnce fails unless got is the oracle's set with no pair
// twice.
func checkExactlyOnce(t *testing.T, label string, got, oracle []geom.Pair) {
	t.Helper()
	seen := make(map[geom.Pair]bool, len(got))
	for _, p := range got {
		if seen[p] {
			t.Fatalf("%s: pair %v emitted twice", label, p)
		}
		seen[p] = true
	}
	if len(got) != len(oracle) {
		t.Fatalf("%s: emitted %d pairs, oracle has %d", label, len(got), len(oracle))
	}
	for _, p := range oracle {
		if !seen[p] {
			t.Fatalf("%s: oracle pair %v never emitted", label, p)
		}
	}
}

// TestStripeSeamsExactlyOnce drives the striped P = 1 join over the
// seam geometry for every duplicate method × internal algorithm × worker
// count against a nested-loops oracle.
func TestStripeSeamsExactlyOnce(t *testing.T) {
	R, S := seamInputs(t)
	oracle := naive(R, S)
	mem := int64(len(R)+len(S)) * geom.KPESize * 4
	for _, dup := range []DupMethod{DupRPM, DupSort, DupTLSP} {
		for _, alg := range []sweep.Kind{sweep.ListKind, sweep.TrieKind, sweep.NestedLoopsKind} {
			var first []geom.Pair
			var firstSt Stats
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("%v/%s/parallel=%d", dup, alg, workers)
				got, st := run(t, R, S, Config{Memory: mem, Dup: dup, Algorithm: alg, Parallel: workers})
				if st.P != 1 {
					t.Fatalf("%s: P = %d, the test must run the in-memory path", label, st.P)
				}
				if io := st.TotalIO(); dup != DupSort && io.CostUnits != 0 {
					t.Fatalf("%s: in-memory join charged %g I/O units", label, io.CostUnits)
				}
				checkExactlyOnce(t, label, got, oracle)
				if st.Results != int64(len(got)) {
					t.Fatalf("%s: Stats.Results = %d, emitted %d", label, st.Results, len(got))
				}
				// Seam-crossing pairs meet in more than one stripe, so the
				// raw candidates must outnumber the results — all of them
				// pay the reference-point test under TLSP, whose class
				// test has nothing to say about unclassed copies.
				if st.RawResults <= st.Results {
					t.Fatalf("%s: RawResults = %d must exceed Results = %d", label, st.RawResults, st.Results)
				}
				wantRef := int64(0)
				if dup == DupTLSP {
					wantRef = st.RawResults
				}
				if st.TLSPRefTests != wantRef || st.TLSPSkipped != 0 {
					t.Fatalf("%s: TLSPRefTests = %d (want %d), TLSPSkipped = %d (want 0)",
						label, st.TLSPRefTests, wantRef, st.TLSPSkipped)
				}
				if first == nil {
					first, firstSt = got, st
					continue
				}
				if !slices.Equal(got, first) {
					t.Fatalf("%s: emission sequence differs from parallel=1", label)
				}
				if st.RawResults != firstSt.RawResults || st.Tests != firstSt.Tests {
					t.Fatalf("%s: RawResults/Tests = %d/%d, parallel=1 had %d/%d",
						label, st.RawResults, st.Tests, firstSt.RawResults, firstSt.Tests)
				}
			}
		}
	}
}

// TestStripeOrderThroughPairExec: the shard layer's P = 1 entry point
// shares the striped join, hence its emission sequence.
func TestStripeOrderThroughPairExec(t *testing.T) {
	R, S := seamInputs(t)
	mem := int64(len(R)+len(S)) * geom.KPESize * 4
	for _, dup := range []DupMethod{DupRPM, DupTLSP} {
		cfg := Config{Disk: newDisk(), Memory: mem, Dup: dup}
		want, wantSt := run(t, R, S, cfg)
		gs := PlanGrid(len(R), len(S), cfg)
		if gs.Parts != 1 {
			t.Fatalf("%v: planned %d partitions, want 1", dup, gs.Parts)
		}
		for _, workers := range []int{1, 4} {
			cfg.Parallel = workers
			ex, err := NewPairExec(cfg, gs)
			if err != nil {
				t.Fatal(err)
			}
			var got []geom.Pair
			err = ex.RunPair(0, R, S, func(p geom.Pair) { got = append(got, p) })
			st := ex.Stats()
			ex.Close()
			if err != nil {
				t.Fatalf("%v/parallel=%d: RunPair: %v", dup, workers, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v/parallel=%d: RunPair's emission sequence differs from Join's", dup, workers)
			}
			if st.Results != wantSt.Results || st.RawResults != wantSt.RawResults || st.Tests != wantSt.Tests {
				t.Fatalf("%v/parallel=%d: Results/RawResults/Tests = %d/%d/%d, Join had %d/%d/%d", dup, workers,
					st.Results, st.RawResults, st.Tests, wantSt.Results, wantSt.RawResults, wantSt.Tests)
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

// TestStripeCancellation cancels the striped join at checkpoints spread
// over its whole poll range — index build, between stripes, mid-gather —
// at one and at four workers: each run must end KindCanceled in the join
// phase, emit no pair twice, and leave no goroutine behind.
func TestStripeCancellation(t *testing.T) {
	R, S := seamInputs(t)
	mem := int64(len(R)+len(S)) * geom.KPESize * 4
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		probe := &pollCtx{Context: context.Background()}
		cfg := Config{Disk: newDisk(), Memory: mem, Parallel: workers, Cancel: govern.NewCheck(probe)}
		if _, err := Join(R, S, cfg, func(geom.Pair) {}); err != nil {
			t.Fatalf("probe run: %v", err)
		}
		total := probe.polls.Load()
		if total < 8 {
			t.Fatalf("parallel=%d: only %d checkpoint polls in the whole join", workers, total)
		}
		// Which slot gathers which stripe varies from run to run, and with
		// it the poll count by a few: stay clear of the very end.
		for at := int64(1); at < total*3/4; at += max(1, total/16) {
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
			if !errors.As(err, &je) || je.Phase != PhaseJoin.String() {
				t.Fatalf("parallel=%d cancel@%d: error %v does not name the join phase", workers, at, err)
			}
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
