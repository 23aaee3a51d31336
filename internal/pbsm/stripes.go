package pbsm

import (
	"fmt"
	"math"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
)

// The in-memory kernel under every join: one sweep over a whole loaded
// partition pair is the worst case of the list sweep (§3.2.2, Figure 5)
// — its status lists grow with the partition, so more memory makes it
// slower. The kernel therefore applies the paper's own recipe one level
// down: the unit square is cut into K equal-height y-stripes, a rectangle
// belongs to every stripe its y-extent overlaps (replication), each
// stripe is swept on its own, and a candidate pair survives only in the
// stripe holding its reference point (RPM). It has two drivers: at P = 1
// the stripes of the whole input are the scheduler's units
// (joinInMemory); at P > 1 the top pairs are, and each loaded pair —
// repartition leaves and memory-overflow leaves included — runs its
// stripes in a loop inside its unit (joinLoadedPair). See DESIGN.md §17.

// stripeRecords is the number of records, R and S together, a stripe
// holds on average: two gathered sides of this size sort and sweep
// inside a core's L2 cache (3072 × 48 B ≈ 144 KiB), and the list sweep's
// status stays a few entries long. It is a constant, not a Config knob:
// the right value follows from the cache, not from the workload, and
// anywhere in 2–4k measures the same.
const stripeRecords = 3072

// stripeCount is K for n loaded records; up to stripeRecords records
// keep K = 1, a single sweep over the whole space.
func stripeCount(n int) int {
	return max(1, (n+stripeRecords-1)/stripeRecords)
}

// stripeRegion is stripe i of k equal-height y-stripes of the unit
// square, with the grid's half-open convention: a point exactly on the
// seam i/k belongs to the stripe above it, and y = 1 is clamped into the
// last stripe (clampIdx), so index and duplicate test always agree. The
// one stripe of k = 1 contains every point.
type stripeRegion struct{ k, i int }

func (r stripeRegion) contains(p geom.Point) bool { return clampIdx(p.Y, r.k) == r.i }

// stripeIndex lists, stripe by stripe, the positions in one input of the
// records whose y-extent overlaps the stripe: stripe i owns
// pos[off[i]:off[i+1]], ascending. Positions instead of record copies
// keep the replicated layout at 4 bytes a copy; a worker gathers one
// stripe at a time into its own scratch. The arrays are reused from one
// build to the next.
type stripeIndex struct {
	off  []int
	pos  []uint32
	next []int // build's scatter cursors
	max  int   // size of the fullest stripe
}

// resized returns s with length n, reallocated only when its capacity is
// short; the contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// build indexes ks over k stripes in one count pass and one scatter
// pass.
func (x *stripeIndex) build(ks []geom.KPE, k int, chk *govern.Check) error {
	if uint64(len(ks)) > math.MaxUint32 {
		return fmt.Errorf("in-memory join of %d records exceeds the stripe index's 32-bit positions", len(ks))
	}
	x.off = resized(x.off, k+1)
	clear(x.off)
	st := chk.Stride()
	for i := range ks {
		if err := st.Point(); err != nil {
			return err
		}
		for s, hi := clampIdx(ks[i].Rect.YL, k), clampIdx(ks[i].Rect.YH, k); s <= hi; s++ {
			x.off[s+1]++
		}
	}
	x.max = 0
	for s := 0; s < k; s++ {
		x.max = max(x.max, x.off[s+1])
		x.off[s+1] += x.off[s]
	}
	x.pos = resized(x.pos, x.off[k])
	x.next = append(x.next[:0], x.off[:k]...)
	for i := range ks {
		if err := st.Point(); err != nil {
			return err
		}
		for s, hi := clampIdx(ks[i].Rect.YL, k), clampIdx(ks[i].Rect.YH, k); s <= hi; s++ {
			x.pos[x.next[s]] = uint32(i)
			x.next[s]++
		}
	}
	return nil
}

// stripes is the K the index was built over.
func (x *stripeIndex) stripes() int { return len(x.off) - 1 }

// stripe returns the input positions of stripe i.
func (x *stripeIndex) stripe(i int) []uint32 { return x.pos[x.off[i]:x.off[i+1]] }

// stripeBatch is how many result pairs a worker slot holds back before
// handing them on in one go. Workers meeting at the collector's mutex
// for every pair would pass its cache line, and the caller's sink state
// behind it, from core to core once per result, at a cost that depends
// on who runs where; in batches they meet once per stripe or so, and the
// slot's buffer stays small even on a stripe where everything intersects
// everything.
const stripeBatch = 1024

// slot is everything one worker slot of the unit driver owns, so that no
// unit allocates what the unit before it on the same slot already had:
// its internal algorithm, the partition pair it has loaded and that
// pair's stripe index (P > 1 only — at P = 1 the one index over the
// inputs is shared), the two sides it gathers each stripe into, and the
// batch of results not yet handed on.
type slot struct {
	alg          sweep.Algorithm
	loadR, loadS []geom.KPE
	ixR, ixS     stripeIndex
	rs, ss       []geom.KPE
	out          []geom.Pair
}

func (j *joiner) newSlot() slot {
	return slot{alg: sweep.New(j.cfg.Algorithm)}
}

// trim drops every buffer that has grown past limit records, so that one
// memory-overflow leaf does not leave the slot holding its size for the
// rest of the join.
func (sl *slot) trim(limit int) {
	for _, b := range []*[]geom.KPE{&sl.loadR, &sl.loadS, &sl.rs, &sl.ss} {
		if cap(*b) > limit {
			*b = nil
		}
	}
	for _, x := range []*stripeIndex{&sl.ixR, &sl.ixS} {
		if cap(x.pos) > limit {
			x.pos = nil
		}
	}
}

// gather copies stripe i of ks into dst[:0], which grows straight to the
// index's fullest stripe when it is short. Copies of partitioned input
// (classed) keep the TLSP class the scatter gave them; unpartitioned
// input was never classed, and whatever the caller left in Class must
// not veto a result. The copy loop has no cancellation checkpoint of its
// own: the sweep that follows it is many times longer and cannot have
// one, so both drivers poll once per stripe.
func gather(dst, ks []geom.KPE, ix *stripeIndex, i int, classed bool) []geom.KPE {
	pos := ix.stripe(i)
	if cap(dst) < len(pos) {
		dst = make([]geom.KPE, 0, ix.max)
	}
	dst = dst[:0]
	for _, p := range pos {
		k := ks[p]
		if !classed {
			k.Class = 0
		}
		dst = append(dst, k)
	}
	return dst
}

// sweepStripe joins stripe i of the indexed pair (R, S): it gathers both
// sides into the slot's scratch and sweeps them. R and S are not
// modified.
func (j *joiner) sweepStripe(sl *slot, emit func([]geom.Pair), R, S []geom.KPE, ixR, ixS *stripeIndex, i int, regR, regS region) error {
	// A stripe one side never reaches has nothing to join.
	if len(ixR.stripe(i)) == 0 || len(ixS.stripe(i)) == 0 {
		return nil
	}
	// j.grid is nil exactly when the inputs were never partitioned.
	classed := j.grid != nil
	sl.rs = gather(sl.rs, R, ixR, i, classed)
	sl.ss = gather(sl.ss, S, ixS, i, classed)
	return j.joinLoaded(sl, emit, sl.rs, sl.ss, stripeRegion{k: ixR.stripes(), i: i}, regR, regS)
}

// joinLoaded is the one place the internal algorithm runs: one sweep
// over the two sides of a stripe (which it may reorder), every candidate
// through duplicate handling, the survivors to emit in batches, the last
// one when the sweep ends.
//
// The stripe is a third region beside regR and regS, and it is tested
// first and silently: a candidate whose reference point lies in another
// stripe is that stripe's to report and counts for nothing here, so the
// configured DupMethod — RawResults, the DupSort spool, the TLSP
// counters — only ever sees the partition-level duplicates it would see
// if the pair had been swept whole.
//
// The per-candidate counters are kept on the stack and folded into the
// shared Stats and the live metrics once per call, so parallel workers
// meet at the stats mutex and the counters' cache lines per sweep and
// not per candidate; only DupSort's shared result spool is still entered
// per candidate.
func (j *joiner) joinLoaded(sl *slot, emit func([]geom.Pair), rs, ss []geom.KPE, stripe stripeRegion, regR, regS region) error {
	if sl.out == nil {
		// Allocated here, inside the join span and only by a join that
		// emits through it, not in newSlot.
		sl.out = make([]geom.Pair, 0, stripeBatch)
	}
	// The batch grows in a variable of this call, not in the slot: the
	// slots of a region lie side by side, and a length written once per
	// result would share its cache line with the neighbour's fields.
	out := sl.out[:0]
	sink := func(p geom.Pair) {
		if out = append(out, p); len(out) == stripeBatch {
			emit(out)
			out = out[:0]
		}
	}

	spool := j.par && j.cfg.Dup == DupSort
	// Under TLSP the class test is the whole top-level duplicate story;
	// a region test is owed only when repartitioning wrapped inner
	// regions around the pair (the class says nothing about which
	// sub-partition may report). wholeSpace on both sides means depth 0.
	needRef := false
	if j.cfg.Dup == DupTLSP {
		_, rWhole := regR.(wholeSpace)
		_, sWhole := regS.(wholeSpace)
		needRef = !rWhole || !sWhole
	}
	var werr error
	var raw, skipped, refTests int64
	sl.alg.Join(rs, ss, func(r, s geom.KPE) {
		x := geom.RefPoint(r.Rect, s.Rect)
		if !stripe.contains(x) {
			return
		}
		raw++
		switch j.cfg.Dup {
		case DupRPM:
			if regR.contains(x) && regS.contains(x) {
				sink(geom.Pair{R: r.ID, S: s.ID})
			}
		case DupSort:
			if werr == nil {
				if spool {
					j.mu.Lock()
				}
				werr = j.dupWriter.Write(geom.Pair{R: r.ID, S: s.ID})
				if spool {
					j.mu.Unlock()
				}
			}
		case DupTLSP:
			if r.Class&s.Class != 0 {
				// Another tile holds both corners' max: this copy pair
				// provably duplicates that tile's result. Rejected by
				// two bit operations, no region consulted.
				skipped++
			} else if needRef {
				refTests++
				if regR.contains(x) && regS.contains(x) {
					sink(geom.Pair{R: r.ID, S: s.ID})
				}
			} else {
				sink(geom.Pair{R: r.ID, S: s.ID})
			}
		}
	})
	if werr != nil {
		return werr
	}
	emit(out)
	j.bump(func() {
		j.stats.RawResults += raw
		j.stats.TLSPSkipped += skipped
		j.stats.TLSPRefTests += refTests
	})
	if j.cfg.Dup == DupRPM {
		j.rpmTests.Add(raw)
	}
	j.tlspSkipped.Add(skipped)
	return nil
}

// joinLoadedPair is the P > 1 driver: it joins the partition pair the
// slot has loaded, stripe after stripe inside the pair's own unit — the
// top pairs already keep every worker busy, so a scheduler nested in
// each of them would only add a second collector and reorder buffers.
// emit sees stripe order, then sweep order inside the stripe.
func (j *joiner) joinLoadedPair(sl *slot, emit func([]geom.Pair), sp *trace.Span, regR, regS region) error {
	k := stripeCount(len(sl.loadR) + len(sl.loadS))
	sp.SetAttr("stripes", int64(k))
	if k == 1 {
		// One stripe holds everything: nothing to index or gather, the
		// pair is swept where it was loaded.
		return j.joinLoaded(sl, emit, sl.loadR, sl.loadS, stripeRegion{k: 1}, regR, regS)
	}
	if err := sl.ixR.build(sl.loadR, k, j.cfg.Cancel); err != nil {
		return err
	}
	if err := sl.ixS.build(sl.loadS, k, j.cfg.Cancel); err != nil {
		return err
	}
	for i := 0; i < k; i++ {
		// A stripe is the unit of abandonment, as it is for the scheduler
		// at P = 1.
		if err := j.cfg.Cancel.Now(); err != nil {
			return err
		}
		if err := j.sweepStripe(sl, emit, sl.loadR, sl.loadS, &sl.ixR, &sl.ixS, i, regR, regS); err != nil {
			return err
		}
	}
	return nil
}

// joinInMemory is the P = 1 driver: it joins R and S without touching
// the disk, for both Join and PairExec.RunPair. The stripes are ordered
// units on the unit driver (runUnits), so sink sees stripe order, then
// sweep order inside the stripe, at every worker count; with K = 1 that
// is one sweep over the whole space. The inputs are not modified.
func (j *joiner) joinInMemory(R, S []geom.KPE, sink func(geom.Pair)) error {
	pt := j.begin(PhaseJoin)
	defer pt.End()
	pt.Span.AddRecords(int64(len(R) + len(S)))
	k := stripeCount(len(R) + len(S))
	pt.Span.SetAttr("stripes", int64(k))

	// The two index builds share nothing, so they are the phase's first
	// two scheduler units.
	var ixR, ixS stripeIndex
	err := sched.Run(2, sched.Options{
		Workers: j.cfg.Parallel,
		Name:    "stripe-index",
		Span:    pt.Span,
		Cancel:  j.cfg.Cancel,
		Metrics: j.cfg.Metrics,
	}, func(_, i int) error {
		if i == 0 {
			return ixR.build(R, k, j.cfg.Cancel)
		}
		return ixS.build(S, k, j.cfg.Cancel)
	})
	if err != nil {
		return joinerr.Wrap("pbsm", PhaseJoin.String(), err)
	}

	j.cfg.Progress.SetTotal(float64(k))
	return j.runUnits(k, "stripe-worker", int64(ixR.max+ixS.max)*geom.KPESize, pt.Span, sink,
		func(sl *slot, col *sched.Collector, i int) error {
			err := j.sweepStripe(sl, func(ps []geom.Pair) { col.EmitBatch(i, ps) }, R, S, &ixR, &ixS, i, wholeSpace{}, wholeSpace{})
			if err == nil {
				j.cfg.Progress.Add(1)
			}
			return err
		})
}
