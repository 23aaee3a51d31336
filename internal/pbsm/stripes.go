package pbsm

import (
	"fmt"
	"math"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/sweep"
)

// The P = 1 join. When formula (1) yields a single partition nothing is
// written to disk, but one sweep over everything is the worst case of
// the list sweep (§3.2.2, Figure 5): its status lists grow with the
// partition. So the in-memory join applies the paper's own recipe one
// level down: the unit square is cut into K equal-height y-stripes, a
// rectangle belongs to every stripe its y-extent overlaps (replication),
// each stripe is swept on its own, and a candidate pair is reported only
// by the stripe holding its reference point (RPM). See DESIGN.md §17.

// stripeRecords is the number of records, R and S together, a stripe
// holds on average: two gathered sides of this size sort and sweep
// inside a core's L2 cache (3072 × 48 B ≈ 144 KiB), and the list sweep's
// status stays a few entries long. It is a constant, not a Config knob:
// the right value follows from the cache, not from the workload, and
// anywhere in 2–4k measures the same.
const stripeRecords = 3072

// stripeCount is K for n input records; inputs of up to stripeRecords
// records keep K = 1, a single sweep over the whole space.
func stripeCount(n int) int {
	return max(1, (n+stripeRecords-1)/stripeRecords)
}

// stripeRegion is stripe i of k equal-height y-stripes of the unit
// square, with the grid's half-open convention: a point exactly on the
// seam i/k belongs to the stripe above it, and y = 1 is clamped into the
// last stripe (clampIdx), so index and duplicate test always agree.
type stripeRegion struct{ k, i int }

func (r stripeRegion) contains(p geom.Point) bool { return clampIdx(p.Y, r.k) == r.i }

// stripeIndex lists, stripe by stripe, the positions in one input of the
// records whose y-extent overlaps the stripe: stripe i owns
// pos[off[i]:off[i+1]], ascending. Positions instead of record copies
// keep the replicated layout at 4 bytes a copy; a worker gathers one
// stripe at a time into its own scratch.
type stripeIndex struct {
	off []int
	pos []uint32
}

// newStripeIndex builds the index of ks over k stripes in one count pass
// and one scatter pass.
func newStripeIndex(ks []geom.KPE, k int, chk *govern.Check) (stripeIndex, error) {
	if uint64(len(ks)) > math.MaxUint32 {
		return stripeIndex{}, fmt.Errorf("in-memory join of %d records exceeds the stripe index's 32-bit positions", len(ks))
	}
	off := make([]int, k+1)
	st := chk.Stride()
	for i := range ks {
		if err := st.Point(); err != nil {
			return stripeIndex{}, err
		}
		for s, hi := clampIdx(ks[i].Rect.YL, k), clampIdx(ks[i].Rect.YH, k); s <= hi; s++ {
			off[s+1]++
		}
	}
	for s := 0; s < k; s++ {
		off[s+1] += off[s]
	}
	pos := make([]uint32, off[k])
	next := append([]int(nil), off[:k]...)
	for i := range ks {
		if err := st.Point(); err != nil {
			return stripeIndex{}, err
		}
		for s, hi := clampIdx(ks[i].Rect.YL, k), clampIdx(ks[i].Rect.YH, k); s <= hi; s++ {
			pos[next[s]] = uint32(i)
			next[s]++
		}
	}
	return stripeIndex{off: off, pos: pos}, nil
}

// stripe returns the input positions of stripe i.
func (x stripeIndex) stripe(i int) []uint32 { return x.pos[x.off[i]:x.off[i+1]] }

// maxStripe is the size of the fullest stripe.
func (x stripeIndex) maxStripe() int {
	m := 0
	for i := 1; i < len(x.off); i++ {
		m = max(m, x.off[i]-x.off[i-1])
	}
	return m
}

// stripeBatch is how many result pairs a worker slot holds back before
// handing them to the collector in one go. Workers meeting at the
// collector's mutex for every pair would pass its cache line, and the
// caller's sink state behind it, from core to core once per result, at a
// cost that depends on who runs where; in batches they meet once per
// stripe or so, and the slot's buffer stays small even on a stripe where
// everything intersects everything.
const stripeBatch = 1024

// stripeSlot is the private scratch of one worker slot: the two sides it
// gathers each stripe into, the batch of results not yet handed on, and
// a loop-local cancellation checkpoint that runs on across stripes.
type stripeSlot struct {
	rs, ss []geom.KPE
	out    []geom.Pair
	chk    govern.Stride
}

// gather copies the records of ks at pos into dst[:0]. The copies carry
// no TLSP class: unpartitioned inputs were never classed, and whatever
// the caller left in Class must not veto a result.
func (sl *stripeSlot) gather(dst, ks []geom.KPE, pos []uint32) ([]geom.KPE, error) {
	dst = dst[:0]
	for _, p := range pos {
		if err := sl.chk.Point(); err != nil {
			return dst, err
		}
		k := ks[p]
		k.Class = 0
		dst = append(dst, k)
	}
	return dst, nil
}

// joinInMemory joins R and S without touching the disk: the whole P = 1
// path of both Join and PairExec.RunPair. The stripes are ordered units
// on the unit driver (runUnits), so sink sees stripe order, then sweep
// order inside the stripe, at every worker count; with K = 1 that is one
// sweep over the whole space. The inputs are not modified.
func (j *joiner) joinInMemory(R, S []geom.KPE, sink func(geom.Pair)) error {
	pt := j.begin(PhaseJoin)
	defer pt.end()
	pt.sp.AddRecords(int64(len(R) + len(S)))
	k := stripeCount(len(R) + len(S))
	pt.sp.SetAttr("stripes", int64(k))

	// The two index builds share nothing, so they are the phase's first
	// two scheduler units.
	workers := j.cfg.workers()
	var ixR, ixS stripeIndex
	err := sched.Run(2, sched.Options{
		Workers: workers,
		Name:    "stripe-index",
		Span:    pt.sp,
		Cancel:  j.cfg.Cancel,
		Metrics: j.cfg.Metrics,
	}, func(_, i int) (err error) {
		if i == 0 {
			ixR, err = newStripeIndex(R, k, j.cfg.Cancel)
		} else {
			ixS, err = newStripeIndex(S, k, j.cfg.Cancel)
		}
		return err
	})
	if err != nil {
		return joinerr.Wrap("pbsm", PhaseJoin.String(), err)
	}
	maxR, maxS := ixR.maxStripe(), ixS.maxStripe()

	j.cfg.Progress.SetTotal(float64(k))
	slots := make([]stripeSlot, workers)
	return j.runUnits(k, "stripe-worker", int64(maxR+maxS)*geom.KPESize, pt.sp, sink,
		func(alg sweep.Algorithm, col *sched.Collector, w, i int) error {
			// A stripe one side never reaches has nothing to join.
			if posR, posS := ixR.stripe(i), ixS.stripe(i); len(posR) > 0 && len(posS) > 0 {
				sl := &slots[w]
				if sl.rs == nil {
					sl.rs, sl.ss = make([]geom.KPE, 0, maxR), make([]geom.KPE, 0, maxS)
					sl.out = make([]geom.Pair, 0, stripeBatch)
					sl.chk = j.cfg.Cancel.Stride()
				}
				var err error
				if sl.rs, err = sl.gather(sl.rs, R, posR); err != nil {
					return err
				}
				if sl.ss, err = sl.gather(sl.ss, S, posS); err != nil {
					return err
				}
				// One stripe is the whole space: no reference-point test is owed.
				var reg region = wholeSpace{}
				if k > 1 {
					reg = stripeRegion{k: k, i: i}
				}
				err = j.joinLoaded(alg, func(p geom.Pair) {
					if sl.out = append(sl.out, p); len(sl.out) == stripeBatch {
						col.EmitBatch(i, sl.out)
						sl.out = sl.out[:0]
					}
				}, sl.rs, sl.ss, reg, wholeSpace{})
				if err != nil {
					return err
				}
				col.EmitBatch(i, sl.out)
				sl.out = sl.out[:0]
			}
			j.cfg.Progress.Add(1)
			return nil
		})
}
