package sssj

import "spatialjoin/internal/metrics"

// Metric names owned by package sssj: the sweep's work and the sort's
// run count as process-lifetime counters.
const (
	// metSweepTests counts the sweep's candidate tests.
	metSweepTests = "sssj.sweep.tests"
	// metSweepTouches counts the status-structure nodes the sweep
	// visited, by "alg" label (list, trie).
	metSweepTouches = "sssj.sweep.touches"
	// metSortRuns counts the initial runs of both relation sorts.
	metSortRuns = "sssj.sort.runs"
)

// publishMetrics adds one finished join's totals to the process-
// lifetime counters; the handles of a nil registry are no-ops.
func publishMetrics(m *metrics.Registry, st *Stats, alg string) {
	m.Counter(metSweepTests).Add(st.Tests)
	m.CounterVec(metSweepTouches, "alg").With(alg).Add(st.Touches)
	m.Counter(metSortRuns).Add(int64(st.SortRuns))
}
