package sched

import "spatialjoin/internal/metrics"

// Metric names owned by package sched. Every family is a vec labeled
// by pool name (Options.Name), so PBSM pair workers, SHJ bucket
// workers, extsort runs/merges and S³J's partitioners each get their own
// live series from the one shared scheduler.
const (
	// metUnitsQueued is the number of units not yet started in the pool.
	metUnitsQueued = "sched.units.queued"
	// metUnitsRunning is the number of units executing right now.
	metUnitsRunning = "sched.units.running"
	// metUnitsDone counts units retired (success or error).
	metUnitsDone = "sched.units.done"
	// metWorkersActive is the number of live worker slots, including
	// slot 0; it exposes governor-degraded pools (fewer slots granted
	// than requested) directly.
	metWorkersActive = "sched.workers.active"
)

// poolMetrics is the per-Run handle set; nil when no registry is
// attached, and every method is nil-safe through the handle types.
type poolMetrics struct {
	queued  *metrics.Gauge
	running *metrics.Gauge
	done    *metrics.Counter
	workers *metrics.Gauge
}

// poolMetrics resolves the pool's handles, or nil without a registry.
func (o *Options) poolMetrics() *poolMetrics {
	if o.Metrics == nil {
		return nil
	}
	pool := o.name()
	return &poolMetrics{
		queued:  o.Metrics.GaugeVec(metUnitsQueued, "pool").With(pool),
		running: o.Metrics.GaugeVec(metUnitsRunning, "pool").With(pool),
		done:    o.Metrics.CounterVec(metUnitsDone, "pool").With(pool),
		workers: o.Metrics.GaugeVec(metWorkersActive, "pool").With(pool),
	}
}

// unitStart moves one unit from queued to running.
func (pm *poolMetrics) unitStart() {
	if pm == nil {
		return
	}
	pm.queued.Add(-1)
	pm.running.Add(1)
}

// unitEnd retires one running unit.
func (pm *poolMetrics) unitEnd() {
	if pm == nil {
		return
	}
	pm.running.Add(-1)
	pm.done.Inc()
}

// drain zeroes the pool's live gauges when a Run returns early (error
// or cancellation skipped queued units).
func (pm *poolMetrics) drain() {
	if pm == nil {
		return
	}
	pm.queued.Set(0)
	pm.running.Set(0)
	pm.workers.Set(0)
}
