package metrics

import "time"

// Progress is the per-join completion estimator. The planner of the
// running method declares a total planned cost (PBSM: the sum of
// iocost.PairCost over the partition grid; S³J/SHJ: record weights) and
// workers report completed cost as they retire units; Progress folds
// both into four registry gauges — join.progress.{total,done,fraction,
// eta.seconds} — read by `sjoin -progress` and the /metrics endpoint.
//
// The fraction gauge is monotone by construction (SetMax) even when
// parallel workers complete cost out of order, and reaches exactly 1.0
// when Done is called at join success. A nil *Progress (from a nil
// Registry) is a valid no-op handle, preserving the disabled-mode nil
// fast path.
type Progress struct {
	total *Gauge
	done  *Gauge
	frac  *Gauge
	eta   *Gauge
	start time.Time
}

// NewProgress registers (or re-binds) the progress gauges on r and
// resets them for a new join. Returns nil when r is nil. The gauges
// describe one join at a time: a process running concurrent joins
// should hand each its own registry or none.
func NewProgress(r *Registry) *Progress {
	if r == nil {
		return nil
	}
	p := &Progress{
		total: r.Gauge(JoinProgressTotal),
		done:  r.Gauge(JoinProgressDone),
		frac:  r.Gauge(JoinProgressFraction),
		eta:   r.Gauge(JoinProgressETASeconds),
		start: time.Now(),
	}
	p.total.Set(0)
	p.done.Set(0)
	p.frac.Set(0)
	p.eta.Set(0)
	return p
}

// SetTotal declares the planned cost of the join. Call once, after the
// method's planning phase, before workers start reporting.
func (p *Progress) SetTotal(cost float64) {
	if p == nil {
		return
	}
	p.total.Set(cost)
}

// Add reports delta units of completed planned cost and refreshes the
// fraction and ETA gauges. Safe from concurrent workers.
func (p *Progress) Add(delta float64) {
	if p == nil {
		return
	}
	done := p.done.Add(delta)
	total := p.total.Value()
	if total <= 0 {
		return
	}
	f := done / total
	if f > 1 {
		f = 1
	}
	p.frac.SetMax(f)
	if f > 0 {
		elapsed := time.Since(p.start).Seconds()
		p.eta.Set(elapsed * (1 - f) / f)
	}
}

// Done clamps the estimator to completion: fraction 1.0, ETA 0,
// done == total. Called by core.Join when the method returns success,
// so phases outside the planned cost model (output sort, heal passes)
// cannot leave the gauge short of 1.0.
func (p *Progress) Done() {
	if p == nil {
		return
	}
	total := p.total.Value()
	if total <= 0 {
		total = 1
		p.total.Set(total)
	}
	p.done.Set(total)
	p.frac.SetMax(1)
	p.eta.Set(0)
}

// Fraction returns the current completed fraction in [0, 1].
func (p *Progress) Fraction() float64 {
	if p == nil {
		return 0
	}
	return p.frac.Value()
}
