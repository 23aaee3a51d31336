package pbsm

import (
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/stripe"
)

// filter is what PBSM adds to the pair kernel of package stripe, which it
// runs over the unit square's band (DESIGN.md §16): its keep method is
// the kernel's hook, the configured DupMethod over every candidate whose
// reference point lies in the stripe being swept. Its counters are folded
// into the shared Stats and the live metrics once per kernel call (fold),
// so parallel workers meet at the stats mutex and the counters' cache
// lines per call and not per candidate. DupSort keeps every candidate:
// its duplicates go with the rest through the collector into the runs
// of phase 4.
type filter struct {
	j          *joiner
	regR, regS region
	// classed is set when the input was partitioned. Unpartitioned input
	// was never classed, and whatever the caller left in Class must not
	// veto a result.
	classed bool
	// needRef: under TLSP the class test is the whole top-level duplicate
	// story; a region test is owed only when repartitioning wrapped inner
	// regions around the pair (the class says nothing about which
	// sub-partition may report). wholeSpace on both sides means depth 0.
	needRef bool

	raw, skipped, refTests int64
}

func (j *joiner) newFilter(regR, regS region) *filter {
	_, rWhole := regR.(wholeSpace)
	_, sWhole := regS.(wholeSpace)
	return &filter{j: j, regR: regR, regS: regS, classed: j.grid != nil, needRef: !rWhole || !sWhole}
}

func (f *filter) keep(r, s geom.KPE, x geom.Point) bool {
	f.raw++
	switch f.j.cfg.Dup {
	case DupRPM:
		return f.regR.contains(x) && f.regS.contains(x)
	case DupSort:
		return true
	case DupTLSP:
		if f.classed && r.Class&s.Class != 0 {
			// Another tile holds both corners' max: this copy pair
			// provably duplicates that tile's result. Rejected by two bit
			// operations, no region consulted.
			f.skipped++
		} else if f.needRef {
			f.refTests++
			return f.regR.contains(x) && f.regS.contains(x)
		} else {
			return true
		}
	}
	return false
}

// fold ends the kernel call f filtered. It returns the error of a failed
// DupSort run write, if any, so the join phase ends at the next kernel
// call after one.
func (j *joiner) fold(f *filter) (err error) {
	j.bump(func() {
		err = j.spillErr
		j.stats.RawResults += f.raw
		j.stats.TLSPSkipped += f.skipped
		j.stats.TLSPRefTests += f.refTests
	})
	if j.cfg.Dup == DupRPM {
		j.rpmTests.Add(f.raw)
	}
	j.tlspSkipped.Add(f.skipped)
	return err
}

// joinInMemory is the P = 1 driver: it joins R and S, which it does not
// modify, without touching the disk, for both Join and PairExec.RunPair.
// The stripes are the ordered units, so sink sees stripe order, then
// sweep order inside the stripe, at every worker count.
func (j *joiner) joinInMemory(R, S []geom.KPE, sink func(geom.Pair)) error {
	pt := j.begin(PhaseJoin)
	defer pt.End()
	pt.Span.AddRecords(int64(len(R) + len(S)))
	w, err := j.ex.Index(R, S, stripe.Unit, pt.Span)
	if err != nil {
		return joinerr.Wrap("pbsm", PhaseJoin.String(), err)
	}
	j.cfg.Progress.SetTotal(float64(w.Stripes()))
	return joinerr.Wrap("pbsm", PhaseJoin.String(), j.ex.Run(w.Stripes(), "stripe-worker", pt.Span, sink,
		func(sl *stripe.Slot, emit func([]geom.Pair), i int) error {
			f := j.newFilter(wholeSpace{}, wholeSpace{})
			sl.JoinStripe(emit, w, i, f.keep)
			err := j.fold(f)
			if err == nil {
				j.cfg.Progress.Add(1)
			}
			return err
		}))
}
