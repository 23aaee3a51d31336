package core

import "spatialjoin/internal/metrics"

// Metric names owned by package core: whole-join lifecycle counters,
// the process-level view a daemon scrapes to see joins flowing.
const (
	// metJoinsStarted counts joins that passed validation.
	metJoinsStarted = "core.joins.started"
	// metJoinsCompleted counts joins that returned success.
	metJoinsCompleted = "core.joins.completed"
	// metJoinsFailed counts joins that returned an error (including
	// cancellation).
	metJoinsFailed = "core.joins.failed"
	// metJoinsActive is the number of joins currently executing in this
	// process (post-validation, pre-return).
	metJoinsActive = "core.joins.active"
	// metResults counts result pairs delivered to callers.
	metResults = "core.results"
	// metJoinsAborted counts joins that died of cancellation or a
	// deadline — the subset of metJoinsFailed that also leaves a "cancel"
	// instant in the trace.
	metJoinsAborted = "core.joins.aborted"
	// metCancelChecks counts the join's context polls (govern.Check.Now,
	// directly or forwarded by a Stride); per-poll cost times this
	// counter is what the overhead budget bounds.
	metCancelChecks = "core.cancel.checks"
)

// joinMetrics is the per-Join handle set. Without a registry every
// handle is nil, and nil handles are no-ops.
type joinMetrics struct {
	started   *metrics.Counter
	completed *metrics.Counter
	failed    *metrics.Counter
	active    *metrics.Gauge
	results   *metrics.Counter
	aborted   *metrics.Counter
	checks    *metrics.Counter
}

// newJoinMetrics resolves the lifecycle handles.
func newJoinMetrics(r *metrics.Registry) joinMetrics {
	return joinMetrics{
		started:   r.Counter(metJoinsStarted),
		completed: r.Counter(metJoinsCompleted),
		failed:    r.Counter(metJoinsFailed),
		active:    r.Gauge(metJoinsActive),
		results:   r.Counter(metResults),
		aborted:   r.Counter(metJoinsAborted),
		checks:    r.Counter(metCancelChecks),
	}
}

// begin marks one join entering execution.
func (jm *joinMetrics) begin() {
	jm.started.Inc()
	jm.active.Add(1)
}

// end marks the join leaving execution, with its outcome.
func (jm *joinMetrics) end(results int64, err error) {
	jm.active.Add(-1)
	if err != nil {
		jm.failed.Inc()
		return
	}
	jm.completed.Inc()
	jm.results.Add(results)
}
