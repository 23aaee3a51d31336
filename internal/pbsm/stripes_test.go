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
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/jointest"
	"spatialjoin/internal/shj"
	"spatialjoin/internal/stripe"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
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
	if k := stripe.Count(2 * seamSide); k != 4 {
		t.Fatalf("test geometry assumes K = 4, stripe.Count gives %d", k)
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

// bandInputs builds n records a side for one SHJ bucket whose extent is
// R's, [0, 1] × [lo, hi]: R lies on the seams lo + (hi − lo)·i/k of a
// K = k band — from one seam to the next, zero-height on one, points on
// one — with one rectangle spanning the whole band; S does the same and
// reaches past the band on both sides, so reference points fall exactly
// on band seams and S copies clamp into the end stripes. x is snapped to a
// 1/256 lattice so coincident edges abound. lo == hi puts all of R on one
// horizontal line.
func bandInputs(lo, hi float64, k, n int) (R, S []geom.KPE) {
	rng := rand.New(rand.NewSource(27))
	seam := func(i int) float64 { return lo + (hi-lo)*float64(min(i, k))/float64(k) }
	build := func(past bool) []geom.KPE {
		ks := []geom.KPE{{Rect: geom.NewRect(0, lo, 1, hi)}}
		for len(ks) < n {
			x := float64(rng.Intn(256)) / 256
			w := float64(rng.Intn(3)) / 256
			i := rng.Intn(k + 1)
			yl, yh := seam(i), seam(i+rng.Intn(2))
			if past {
				switch rng.Intn(4) {
				case 0:
					yl = max(0, lo-0.1)
				case 1:
					yh = min(1, hi+0.1)
				}
			}
			if rng.Intn(8) == 0 {
				yl, w = yh, 0 // a point
			}
			ks = append(ks, geom.KPE{ID: uint64(len(ks)), Rect: geom.NewRect(x, yl, min(1, x+w), yh)})
		}
		return ks
	}
	return build(false), build(true)
}

// TestStripeSeamsExactlyOnce drives the kernel over SHJ's bands against a
// nested-loops oracle: one bucket whose extent is R's, its stripes over
// that extent's y-range, for every internal algorithm at one and four
// workers. (PBSM's unit-square stripes at P = 1 are core.TestLattice's
// stripe-seams input.)
func TestStripeSeamsExactlyOnce(t *testing.T) {
	seamR, seamS := seamInputs(t)
	bandR, bandS := bandInputs(0.25, 0.75, 4, 5000)
	lineR, lineS := bandInputs(0.5, 0.5, 4, 2000)
	thinR, thinS := bandInputs(0, 1e-310, 4, 2000)
	for _, in := range []struct {
		name string
		R, S []geom.KPE
		k    int // SHJ's stripe count over the bucket
	}{
		// The bucket's extent is the unit square: coordinates at exactly
		// 0 and 1, on the band's ends.
		{"seams", seamR, seamS, 4},
		// Reference points exactly on the seams 0.375, 0.5 and 0.625 of
		// the band [0.25, 0.75], S copies reaching past both of its ends.
		{"band", bandR, bandS, 4},
		// All of R on one horizontal line: a zero-height band, whose
		// 4000 records must not be cut into stripes.
		{"zero-height band", lineR, lineS, 1},
		// R within a subnormal height of y = 0: 1/(hi − lo) overflows.
		{"subnormal-height band", thinR, thinS, 1},
	} {
		oracle := jointest.Naive(in.R, in.S)
		mem := int64(len(in.R)+len(in.S)) * geom.KPESize * 4
		for _, alg := range []sweep.Kind{sweep.ListKind, sweep.TrieKind, sweep.NestedLoopsKind} {
			var first []geom.Pair
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/shj/%s/parallel=%d", in.name, alg, workers)
				rec := trace.New()
				root := rec.Begin("join:shj")
				var got []geom.Pair
				st, err := shj.Join(in.R, in.S, shj.Config{Disk: newDisk(), Memory: mem, Algorithm: alg, Parallel: workers, Trace: root},
					func(p geom.Pair) { got = append(got, p) })
				root.End()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if st.Buckets != 1 {
					t.Fatalf("%s: %d buckets, the test needs one whose extent is R's", label, st.Buckets)
				}
				for _, sp := range rec.Spans() {
					if i := slices.IndexFunc(sp.Attrs, func(a trace.Attr) bool { return a.Key == "stripes" }); sp.Name == "bucket" && (i < 0 || sp.Attrs[i].Val != int64(in.k)) {
						t.Fatalf("%s: bucket span carries attrs %v, want stripes = %d", label, sp.Attrs, in.k)
					}
				}
				jointest.AssertEqual(t, slices.Clone(got), oracle)
				if first != nil && !slices.Equal(got, first) {
					t.Fatalf("%s: emission sequence differs from parallel=1", label)
				}
				first = got
			}
		}
	}
}

// TestStripeOrderThroughPairExec: the shard layer's P = 1 entry point
// shares the striped join, hence its emission sequence.
func TestStripeOrderThroughPairExec(t *testing.T) {
	R, S := seamInputs(t)
	mem := int64(len(R)+len(S)) * geom.KPESize * 4
	cfg := Config{Disk: newDisk(), Memory: mem}
	want, wantSt := run(t, R, S, cfg)
	gs := PlanGrid(len(R), len(S), cfg)
	if gs.Parts != 1 {
		t.Fatalf("planned %d partitions, want 1", gs.Parts)
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
			t.Fatalf("parallel=%d: RunPair: %v", workers, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("parallel=%d: RunPair's emission sequence differs from Join's", workers)
		}
		if st.Results != wantSt.Results || st.RawResults != wantSt.RawResults || st.Tests != wantSt.Tests {
			t.Fatalf("parallel=%d: Results/RawResults/Tests = %d/%d/%d, Join had %d/%d/%d", workers,
				st.Results, st.RawResults, st.Tests, wantSt.Results, wantSt.RawResults, wantSt.Tests)
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
// over the join phase's whole poll range — mid index build and between
// stripes, at P = 1 and with the stripes inside partition pairs,
// repartitioning included — at one and at four workers: each run must
// end KindCanceled in the join phase, emit no pair twice, and leave no
// goroutine and no temp file behind.
func TestStripeCancellation(t *testing.T) {
	seamR, seamS := seamInputs(t)
	pairR, pairS := pairInputs()
	before := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		R, S []geom.KPE
		cfg  Config
	}{
		{"P=1", seamR, seamS, Config{Memory: int64(len(seamR)+len(seamS)) * geom.KPESize * 4}},
		{"P>1", pairR, pairS, Config{Memory: pairMemories[1], MaxRecurse: 1}},
	} {
		// The window starts where the first result of the one-worker run
		// arrives, when the join phase has begun: at P = 1 there is no
		// other phase, and every phase before the join polls as often at
		// any worker count. A start read off a four-worker run would depend
		// on which unit happens to emit first — on a busy machine the unit
		// that owns the first result can be the last one scheduled.
		var from int64
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s/parallel=%d", tc.name, workers)
			probe := &pollCtx{Context: context.Background()}
			cfg := tc.cfg
			cfg.Disk, cfg.Parallel, cfg.Cancel = newDisk(), workers, govern.NewCheck(probe)
			st, err := Join(tc.R, tc.S, cfg, func(geom.Pair) {
				if from == 0 {
					from = probe.polls.Load()
				}
			})
			if err != nil {
				t.Fatalf("%s: probe run: %v", label, err)
			}
			if (st.P == 1) != (tc.name == "P=1") {
				t.Fatalf("%s: P = %d", label, st.P)
			}
			if st.P == 1 {
				from = 1
			}
			total := probe.polls.Load()
			if total-from < 8 {
				t.Fatalf("%s: only %d checkpoint polls in the join phase", label, total-from)
			}
			// Which slot gathers which stripe varies from run to run, and with
			// it the poll count by a few: stay clear of the very end.
			for at := from; at < total*3/4; at += max(1, (total-from)/16) {
				ctx := &pollCtx{Context: context.Background()}
				ctx.cancelAt.Store(at)
				cfg.Cancel = govern.NewCheck(ctx)
				seen := map[geom.Pair]bool{}
				_, err := Join(tc.R, tc.S, cfg, func(p geom.Pair) {
					if seen[p] {
						t.Errorf("%s cancel@%d: pair %v emitted twice", label, at, p)
					}
					seen[p] = true
				})
				if joinerr.KindOf(err) != joinerr.KindCanceled {
					t.Fatalf("%s cancel@%d of %d: got %v, want a KindCanceled error", label, at, total, err)
				}
				var je *joinerr.JoinError
				if !errors.As(err, &je) || je.Phase != PhaseJoin.String() {
					t.Fatalf("%s cancel@%d: error %v does not name the join phase", label, at, err)
				}
				if n := cfg.Disk.NumFiles(); n != 0 {
					t.Fatalf("%s cancel@%d: %d temp files left behind", label, at, n)
				}
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

// The hot block of pairInputs: hotR identical rectangles of R against
// hotS of S, straddling y = 0.5 — a tile seam of every even grid, and
// inside one of the join's K = 9 stripe rows, which it makes hot. On
// their own they outweigh every budget of pairMemories (the planner gives
// their tile a partition to itself, so nothing else can be counted on to
// push it over), no repartitioning can split them, and their leaf is
// joined over budget, striped.
const (
	hotR = 8400
	hotS = 3
)

// pairMemories are budgets for pairInputs: at the first two, top pairs
// fit the budget and are loaded without repartitioning; at the last only
// repartition leaves and the overflow leaf are. Every loaded pair is cut
// into the join's K = 9 stripe rows.
var pairMemories = []int64{330 << 10, 250 << 10, 100 << 10}

// pairInputs builds two relations for the P > 1 path: edges, zero-area
// rectangles and points exactly on i/d for every d up to 16 — the seams
// of every tile grid and every stripe layout the budgets of pairMemories
// produce, which TestStripePairsExactlyOnce checks — coordinates at
// exactly 0 and 1, rectangles spanning the whole
// domain, the hot block, and random filler on a 1/256 lattice.
func pairInputs() (R, S []geom.KPE) {
	rng := rand.New(rand.NewSource(16))
	build := func(hot int, hotRect geom.Rect) []geom.KPE {
		var ks []geom.KPE
		add := func(xl, yl, xh, yh float64) {
			ks = append(ks, geom.KPE{ID: uint64(len(ks)), Rect: geom.NewRect(xl, yl, xh, yh)})
		}
		add(0, 0, 1, 1) // a copy in every tile and every stripe
		for d := 1; d <= 16; d++ {
			for i := 0; i <= d; i++ {
				v := float64(i) / float64(d)
				u := rng.Float64() * 0.9
				h := rng.Float64() * 0.1
				add(u, v, u+0.02, min(1, v+h)) // bottom edge on the seam
				add(u, max(0, v-h), u+0.02, v) // top edge on the seam
				add(v, u, min(1, v+h), u+0.02) // left edge on the seam
				add(max(0, v-h), u, v, u+0.02) // right edge on the seam
				add(u, v, u+0.02, v)           // zero height, on the seam
				add(v, u, v, u+0.02)           // zero width, on the seam
				add(v, v, v, v)                // a point on two seams
			}
		}
		for i := 0; i < hot; i++ {
			add(hotRect.XL, hotRect.YL, hotRect.XH, hotRect.YH)
		}
		for n := len(ks) + 8000; len(ks) < n; {
			x := float64(rng.Intn(256)) / 256
			y := float64(rng.Intn(256)) / 256
			w := float64(rng.Intn(4)) / 256
			h := float64(rng.Intn(4)) / 256
			add(x, y, min(1, x+w), min(1, y+h))
		}
		return ks
	}
	R = build(hotR, geom.NewRect(0.40, 0.49, 0.42, 0.51))
	S = build(hotS, geom.NewRect(0.41, 0.48, 0.43, 0.52))
	return R, S
}

// setHash is an order-independent hash of a result set.
func setHash(ps []geom.Pair) (h uint64) {
	for _, p := range ps {
		h += (p.R*0x9E3779B97F4A7C15 ^ p.S) * 0xC2B2AE3D27D4EB4F
	}
	return h
}

// rawOracle counts what the join phase produces for the pair (rs, ss)
// before any duplicate handling when every leaf is swept whole: it
// follows repartitionPair's plan (same formula, same grid, larger side
// split) and counts the intersecting pairs of each leaf by nested loops.
// A striped join phase must produce exactly this count — the stripes
// themselves never add to it.
func rawOracle(rs, ss []geom.KPE, cfg Config, depth int) int64 {
	if len(rs) == 0 || len(ss) == 0 {
		return 0
	}
	size := int64(len(rs)+len(ss)) * geom.KPESize
	if size <= cfg.Memory || depth >= cfg.maxRecurse() {
		var n int64
		for _, r := range rs {
			for _, s := range ss {
				if r.Rect.Intersects(s.Rect) {
					n++
				}
			}
		}
		return n
	}
	n := max(2, iocost.PartCount(int64(len(rs)+len(ss)), cfg.Memory, cfg.TuneFactor))
	sub := newGrid(n*cfg.tilesPerPart(), n)
	splitR := len(rs) >= len(ss)
	src := rs
	if !splitR {
		src = ss
	}
	subs := make([][]geom.KPE, n)
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	for gen, k := range src {
		for _, p := range sub.partitionsOf(k.Rect, nil, stamp, gen) {
			subs[p] = append(subs[p], k)
		}
	}
	var total int64
	for _, part := range subs {
		if splitR {
			total += rawOracle(part, ss, cfg, depth+1)
		} else {
			total += rawOracle(rs, part, cfg, depth+1)
		}
	}
	return total
}

// checkStripeAttrs fails unless the span of every loaded pair's join —
// top pair, repartition leaf or overflow leaf — says it ran the join's
// rows stripes, whatever its own record count.
func checkStripeAttrs(t *testing.T, label string, rec *trace.Recorder, rows int) {
	t.Helper()
	loaded := 0
	for _, sp := range rec.Spans() {
		if sp.Name != PhaseJoin.String() || sp.Records == 0 {
			continue // the region's outer timer, not a loaded pair
		}
		loaded++
		i := slices.IndexFunc(sp.Attrs, func(a trace.Attr) bool { return a.Key == "stripes" })
		if i < 0 || sp.Attrs[i].Val != int64(rows) {
			t.Fatalf("%s: join span over %d records carries attrs %v, want the join's stripes = %d",
				label, sp.Records, sp.Attrs, rows)
		}
	}
	if loaded == 0 {
		t.Fatalf("%s: no loaded pair has a join span", label)
	}
}

// TestStripePairsExactlyOnce drives the striped P > 1 join — ordinary
// pairs, repartition leaves and a memory-overflow leaf — over the seam
// geometry for every duplicate method × internal algorithm × memory
// budget × worker count, and through PairExec.RunPair, against nested
// loops: exactly-once, one emission sequence per budget whoever runs the
// pairs, one result set whatever the budget, and a join phase that
// produces exactly what unstriped leaves would (for DupSort: the runs
// are formed from the same multiset).
func TestStripePairsExactlyOnce(t *testing.T) {
	R, S := pairInputs()
	oracle := jointest.Naive(R, S)
	wantHash := setHash(oracle)
	for _, dup := range []DupMethod{DupRPM, DupSort} {
		// The two methods share nothing but the read-only inputs.
		t.Run(dup.String(), func(t *testing.T) {
			t.Parallel()
			for mi, mem := range pairMemories {
				base := Config{Memory: mem, Dup: dup, MaxRecurse: 1}
				gs, err := PlanGridFor(R, S, base)
				if err != nil {
					t.Fatal(err)
				}
				// pairInputs puts its edges on i/d for d ≤ 16 only: beyond
				// that the tile and stripe seams are no longer provably hit.
				if gs.Rows < 2 || gs.Rows > 16 || gs.NX > 16 || gs.NY > 16 {
					t.Fatalf("test geometry assumes 2 ≤ K ≤ 16 stripe rows and at most 16×16 tiles, the plan has K = %d over %d×%d",
						gs.Rows, gs.NX, gs.NY)
				}
				parts := make([]int, gs.Parts)
				for i := range parts {
					parts[i] = i
				}
				slR, err := PartitionSlices(R, gs, parts, nil)
				if err != nil {
					t.Fatal(err)
				}
				slS, err := PartitionSlices(S, gs, parts, nil)
				if err != nil {
					t.Fatal(err)
				}
				var wantRaw int64
				striped := 0 // top pairs that fit the budget, each cut into the K rows
				for _, p := range parts {
					wantRaw += rawOracle(slR[p], slS[p], base, 0)
					if n := len(slR[p]) + len(slS[p]); n > 0 && int64(n)*geom.KPESize <= mem {
						striped++
					}
				}
				if mi < 2 && striped < 2-mi {
					t.Fatalf("%v/mem=%d: %d of %d top pairs are joined striped without repartitioning", dup, mem, striped, gs.Parts)
				}

				for _, alg := range []sweep.Kind{sweep.ListKind, sweep.TrieKind, sweep.NestedLoopsKind} {
					var first []geom.Pair
					var firstSt Stats
					for _, workers := range []int{1, 2, 4} {
						label := fmt.Sprintf("%v/%s/mem=%d/parallel=%d", dup, alg, mem, workers)
						cfg := base
						cfg.Algorithm, cfg.Parallel = alg, workers
						rec := trace.New()
						root := rec.Begin("join:pbsm")
						cfg.Trace = root
						got, st := run(t, R, S, cfg)
						root.End()
						checkStripeAttrs(t, label, rec, gs.Rows)
						if st.P != gs.Parts || st.P < 2 {
							t.Fatalf("%s: P = %d, planned %d", label, st.P, gs.Parts)
						}
						if st.Repartitions == 0 || st.MemoryOverflows == 0 {
							t.Fatalf("%s: %d repartitions, %d memory overflows: the hot block must reach the recursion cap",
								label, st.Repartitions, st.MemoryOverflows)
						}
						if st.RawResults != wantRaw {
							t.Fatalf("%s: RawResults = %d, unstriped leaves produce %d", label, st.RawResults, wantRaw)
						}
						if first != nil {
							if !slices.Equal(got, first) {
								t.Fatalf("%s: emission sequence differs from parallel=1", label)
							}
							if st.TotalIO() != firstSt.TotalIO() {
								t.Fatalf("%s: total I/O %+v, parallel=1 charged %+v", label, st.TotalIO(), firstSt.TotalIO())
							}
							st.PhaseIO, st.PhaseCPU = firstSt.PhaseIO, firstSt.PhaseCPU
							st.FirstResultCPU, st.FirstResultIO = firstSt.FirstResultCPU, firstSt.FirstResultIO
							if st != firstSt {
								t.Fatalf("%s: Stats %+v, parallel=1 had %+v", label, st, firstSt)
							}
							continue
						}
						first, firstSt = got, st
						jointest.AssertEqual(t, slices.Clone(got), oracle)
						if h := setHash(got); h != wantHash {
							t.Fatalf("%s: set hash %#x, want %#x", label, h, wantHash)
						}
					}
					if dup == DupSort {
						continue // PairExec needs the Reference Point Method
					}
					// RunPair joins a P > 1 pair on its one slot whatever
					// Config.Parallel says, so one worker count covers it.
					cfg := base
					cfg.Disk, cfg.Algorithm = newDisk(), alg
					ex, err := NewPairExec(cfg, gs)
					if err != nil {
						t.Fatal(err)
					}
					var got []geom.Pair
					for _, p := range parts {
						if err := ex.RunPair(p, slR[p], slS[p], func(pr geom.Pair) { got = append(got, pr) }); err != nil {
							t.Fatalf("%v/%s/mem=%d: RunPair(%d): %v", dup, alg, mem, p, err)
						}
					}
					st := ex.Stats()
					ex.Close()
					if !slices.Equal(got, first) {
						t.Fatalf("%v/%s/mem=%d: RunPair's emission sequence differs from Join's", dup, alg, mem)
					}
					if st.Results != firstSt.Results || st.RawResults != firstSt.RawResults || st.Tests != firstSt.Tests {
						t.Fatalf("%v/%s/mem=%d: PairExec Results/RawResults/Tests = %d/%d/%d, Join had %d/%d/%d", dup, alg, mem,
							st.Results, st.RawResults, st.Tests, firstSt.Results, firstSt.RawResults, firstSt.Tests)
					}
					// The pairs that fit join in memory, the hot block through
					// its files: it must recurse exactly as Join's does.
					if st.Repartitions != firstSt.Repartitions || st.MemoryOverflows != firstSt.MemoryOverflows {
						t.Fatalf("%v/%s/mem=%d: PairExec Repartitions/MemoryOverflows = %d/%d, Join had %d/%d", dup, alg, mem,
							st.Repartitions, st.MemoryOverflows, firstSt.Repartitions, firstSt.MemoryOverflows)
					}
					if n := cfg.Disk.NumFiles(); n != 0 {
						t.Fatalf("%v/%s/mem=%d: %d temp files left after Close", dup, alg, mem, n)
					}
				}
			}
		})
	}
}
