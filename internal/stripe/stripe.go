// Package stripe is the in-memory pair kernel of the partitioned joins,
// PBSM and SHJ: the one place their internal algorithm runs. A y-range,
// the band, is cut into K equal-height stripes of about Records records,
// a rectangle belongs to every stripe its y-extent overlaps, each stripe
// is swept on its own, and a candidate pair survives only in the stripe
// holding its reference point — the paper's partition-and-RPM recipe one
// level down, which keeps the list sweep's status short (§3.2.2, Figure
// 5). What becomes of a survivor is the caller's to decide through a Keep
// hook: PBSM's duplicate method, or nothing at all for SHJ.
//
// Units run on one ordered driver (Exec.Run) that hands every worker a
// Slot owning its algorithm and buffers. A pair loaded into a slot runs
// its stripes in a loop inside its unit (Slot.JoinLoaded); inputs joined
// where they lie have their stripes as the units (Exec.Index,
// Slot.JoinStripe). See DESIGN.md §16.
package stripe

import (
	"fmt"
	"math"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
)

// Records is the number of records, R and S together, a stripe holds on
// average: two gathered sides of this size sort and sweep inside a core's
// L2 cache (3072 × 48 B ≈ 144 KiB). It follows from the cache, not from
// the workload — anywhere in 2–4k measures the same — so it is no knob.
const Records = 3072

// Count is K for n records; up to Records records keep K = 1.
func Count(n int) int {
	return max(1, (n+Records-1)/Records)
}

// Band is the y-range a pair is cut into stripes over: y goes to stripe
// geom.ClampIdx((y − lo)·inv, K), with inv = 1/(hi − lo). Both steps are
// monotone in y, so a reference point, which lies in the y-extents of both
// of its rectangles, lies in a stripe both were indexed into whatever the
// band, and records reaching past it clamp into the end stripes.
type Band struct{ lo, inv float64 }

// Unit is the band of the unit square: (y − 0)·1 is y bit for bit, so its
// stripes are the data space's own K rows, seam for seam.
var Unit = Band{lo: 0, inv: 1}

// Over is the band from lo to hi.
func Over(lo, hi float64) Band { return Band{lo: lo, inv: 1 / (hi - lo)} }

// stripes is K for n records over the band. A band of zero height, or one
// so thin that 1/(hi − lo) overflows, has no scale to cut by: one stripe.
func (b Band) stripes(n int) int {
	if !(b.inv > 0 && b.inv <= math.MaxFloat64) {
		return 1
	}
	return Count(n)
}

// of is the stripe of y among k.
func (b Band) of(y float64, k int) int { return geom.ClampIdx((y-b.lo)*b.inv, k) }

// index lists, stripe by stripe, the positions in one input of the
// records whose y-extent overlaps the stripe: stripe i owns
// pos[off[i]:off[i+1]], ascending, at 4 bytes a copy. The arrays are
// reused from one build to the next.
type index struct {
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

// build indexes ks over k stripes of band in one count pass and one
// scatter pass.
func (x *index) build(ks []geom.KPE, band Band, k int, chk *govern.Check) error {
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
		for s, hi := band.of(ks[i].Rect.YL, k), band.of(ks[i].Rect.YH, k); s <= hi; s++ {
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
		for s, hi := band.of(ks[i].Rect.YL, k), band.of(ks[i].Rect.YH, k); s <= hi; s++ {
			x.pos[x.next[s]] = uint32(i)
			x.next[s]++
		}
	}
	return nil
}

// stripe returns the input positions of stripe i.
func (x *index) stripe(i int) []uint32 { return x.pos[x.off[i]:x.off[i+1]] }

// Indexed is a pair of inputs indexed over the stripes of a band. A slot's
// loaded pair is one; Exec.Index makes one over inputs joined where they
// lie, whose stripes are then the units of Run. JoinStripe modifies
// neither input.
type Indexed struct {
	r, s     []geom.KPE
	band     Band
	k        int
	ixR, ixS index
}

// Stripes is K.
func (w *Indexed) Stripes() int { return w.k }

// gather copies stripe i of ks into dst[:0], which grows straight to the
// index's fullest stripe when it is short. It has no checkpoint of its
// own: the sweep after it is many times longer and cannot have one, so
// both drivers poll once per stripe.
func gather(dst, ks []geom.KPE, ix *index, i int) []geom.KPE {
	pos := ix.stripe(i)
	if cap(dst) < len(pos) {
		dst = make([]geom.KPE, 0, ix.max)
	}
	dst = dst[:0]
	for _, p := range pos {
		dst = append(dst, ks[p])
	}
	return dst
}

// batch is how many result pairs a slot holds back before handing them on
// in one go: workers meeting at the collector's mutex for every pair
// would pass its cache line from core to core once per result, and the
// buffer stays small on a stripe where everything intersects everything.
const batch = 1024

// Keep decides a candidate (r, s) whose reference point x lies in the
// stripe being swept: true reports it. A nil Keep reports every one.
type Keep func(r, s geom.KPE, x geom.Point) bool

// Slot is everything one worker slot of the unit driver owns, so that no
// unit allocates what the unit before it on the slot already had: its
// algorithm, the pair it has loaded (the caller reads it into LoadR and
// LoadS) and its stripe index, the gathered sides and the result batch.
type Slot struct {
	LoadR, LoadS []geom.KPE

	alg    sweep.Algorithm
	memory int64 // the join's budget: a loaded pair over it trims the slot
	pair   Indexed
	rs, ss []geom.KPE
	out    []geom.Pair
}

// trim drops every buffer that has grown past limit records, so that a
// pair over the budget does not leave the slot its size for the rest of
// the join.
func (sl *Slot) trim(limit int) {
	sl.pair.r, sl.pair.s = nil, nil
	for _, b := range []*[]geom.KPE{&sl.LoadR, &sl.LoadS, &sl.rs, &sl.ss} {
		if cap(*b) > limit {
			*b = nil
		}
	}
	for _, x := range []*index{&sl.pair.ixR, &sl.pair.ixS} {
		if cap(x.pos) > limit {
			x.pos = nil
		}
	}
}

// sweep is the one place the internal algorithm runs: one sweep over the
// two sides of stripe i of k (which it may reorder). A candidate whose
// reference point lies in another stripe is that stripe's and is dropped
// before keep sees it, so a caller's duplicate handling only meets the
// duplicates its partitioning introduced. Survivors go to emit in batches.
func (sl *Slot) sweep(emit func([]geom.Pair), rs, ss []geom.KPE, band Band, k, i int, keep Keep) {
	if sl.out == nil {
		sl.out = make([]geom.Pair, 0, batch) // only by a slot that sweeps
	}
	// The batch grows in a variable of this call, not in the slot: the
	// slots of a region lie side by side, and a length written once per
	// result would share its cache line with the neighbour's fields.
	out := sl.out[:0]
	sl.alg.Join(rs, ss, func(r, s geom.KPE) {
		x := geom.RefPoint(r.Rect, s.Rect)
		if k > 1 && band.of(x.Y, k) != i || keep != nil && !keep(r, s, x) {
			return
		}
		if out = append(out, geom.Pair{R: r.ID, S: s.ID}); len(out) == batch {
			emit(out)
			out = out[:0]
		}
	})
	emit(out)
}

// JoinStripe joins stripe i of w: it gathers both sides into the slot's
// scratch and sweeps them.
func (sl *Slot) JoinStripe(emit func([]geom.Pair), w *Indexed, i int, keep Keep) {
	// A stripe one side never reaches has nothing to join.
	if len(w.ixR.stripe(i)) == 0 || len(w.ixS.stripe(i)) == 0 {
		return
	}
	sl.rs = gather(sl.rs, w.r, &w.ixR, i)
	sl.ss = gather(sl.ss, w.s, &w.ixS, i)
	sl.sweep(emit, sl.rs, sl.ss, w.band, w.k, i, keep)
}

// JoinLoaded joins the pair the slot has loaded over band, stripe after
// stripe inside the caller's unit (the pairs keep every worker busy), so
// emit sees stripe order, then sweep order; sp, the pair's span, is told
// the stripe count. The load buffers may be reordered; over the budget
// they are dropped afterwards, with all else the pair grew (trim).
func (sl *Slot) JoinLoaded(emit func([]geom.Pair), band Band, keep Keep, chk *govern.Check, sp *trace.Span) error {
	if int64(len(sl.LoadR)+len(sl.LoadS))*geom.KPESize > sl.memory {
		defer sl.trim(int(2 * sl.memory / geom.KPESize))
	}
	w := &sl.pair
	w.r, w.s, w.band, w.k = sl.LoadR, sl.LoadS, band, band.stripes(len(sl.LoadR)+len(sl.LoadS))
	sp.SetAttr("stripes", int64(w.k))
	if w.k == 1 { // nothing to index or gather: swept where it was loaded
		sl.sweep(emit, w.r, w.s, band, 1, 0, keep)
		return nil
	}
	if err := w.ixR.build(w.r, band, w.k, chk); err != nil {
		return err
	}
	if err := w.ixS.build(w.s, band, w.k, chk); err != nil {
		return err
	}
	for i := 0; i < w.k; i++ {
		if err := chk.Now(); err != nil { // a stripe is the unit of abandonment
			return err
		}
		sl.JoinStripe(emit, w, i, keep)
	}
	return nil
}

// Exec is the ordered unit driver of one join: the only place that builds
// a collector, hands each worker slot the Slot that owns its algorithm and
// every buffer it reuses from unit to unit, and keeps the sweep counters
// of them all. Slot 0 lives as long as the Exec, the others one Run.
type Exec struct {
	kind           sweep.Kind
	opt            sched.Options // Workers, Cancel and Metrics of every Run
	sl             Slot          // slot 0
	tests, touches int64         // of the extra slots of every finished Run
}

// NewExec prepares the driver of a join with the budget memory: slots run
// alg, units run under opt's Workers, Cancel and Metrics.
func NewExec(alg sweep.Kind, memory int64, opt sched.Options) *Exec {
	return &Exec{kind: alg, opt: opt, sl: Slot{alg: sweep.New(alg), memory: memory}}
}

// Slot is slot 0, for a caller that joins a pair outside Run.
func (x *Exec) Slot() *Slot { return &x.sl }

// Run runs unit for every i in [0, n) as ordered units on the shared
// scheduler behind a collector, so sink sees unit order, then each unit's
// own order, at every worker count. A unit emits through the emit it is
// handed.
func (x *Exec) Run(n int, name string, span *trace.Span, sink func(geom.Pair),
	unit func(sl *Slot, emit func([]geom.Pair), i int) error) error {
	col := sched.NewCollector(n, sink)
	extra := make([]Slot, max(x.opt.Workers, 1)-1) // slots 1 and up
	for w := range extra {
		extra[w] = Slot{alg: sweep.New(x.kind), memory: x.sl.memory}
	}
	opt := x.opt
	opt.Name, opt.Span = name, span
	err := sched.Run(n, opt, func(w, i int) error {
		defer col.Done(i)
		sl := &x.sl
		if w > 0 {
			sl = &extra[w-1]
		}
		return unit(sl, func(ps []geom.Pair) { col.EmitBatch(i, ps) }, i)
	})
	for w := range extra {
		x.tests += extra[w].alg.Tests()
		x.touches += extra[w].alg.Touches()
	}
	return err
}

// Index indexes R and S over band for a join whose stripes are the units
// of Run. The two builds share nothing, so they are two scheduler units
// of their own. sp, the join's span, is told the stripe count.
func (x *Exec) Index(R, S []geom.KPE, band Band, sp *trace.Span) (*Indexed, error) {
	w := &Indexed{r: R, s: S, band: band, k: band.stripes(len(R) + len(S))}
	sp.SetAttr("stripes", int64(w.k))
	opt := x.opt
	opt.Name, opt.Span = "stripe-index", sp
	err := sched.Run(2, opt, func(_, i int) error {
		if i == 0 {
			return w.ixR.build(R, band, w.k, x.opt.Cancel)
		}
		return w.ixS.build(S, band, w.k, x.opt.Cancel)
	})
	return w, err
}

// Counts returns the candidate tests and status touches of every sweep
// the Exec has run, on any slot (see sweep.Algorithm).
func (x *Exec) Counts() (tests, touches int64) {
	return x.tests + x.sl.alg.Tests(), x.touches + x.sl.alg.Touches()
}

// Algorithm names the slots' internal algorithm.
func (x *Exec) Algorithm() string { return x.sl.alg.Name() }
