package shj

import "spatialjoin/internal/metrics"

// Metric names owned by package shj: hash-join redundancy accounting
// as live process-lifetime counters.
const (
	// metReplicationCopies counts probe-side records written (≥ |S|
	// due to replication into overlapping bucket extents).
	metReplicationCopies = "shj.replication.copies"
	// metOrphans counts S rectangles overlapping no bucket extent.
	metOrphans = "shj.orphans"
	// metOverflows counts bucket pairs joined over the memory budget.
	metOverflows = "shj.overflows"
	// metBucketsDone counts joinable bucket pairs completed.
	metBucketsDone = "shj.buckets.done"
	// metSweepTests counts the internal algorithm's candidate tests.
	metSweepTests = "shj.sweep.tests"
	// metSweepTouches counts the status-structure nodes the internal
	// algorithm visited, by "alg" label (list, trie, nested).
	metSweepTouches = "shj.sweep.touches"
	// metBucketFill is the distribution of records (build plus probe
	// side) over the buckets.
	metBucketFill = "shj.bucket.fill"
)

// publishMetrics adds one finished join's totals to the process-
// lifetime counters; the handles of a nil registry are no-ops.
func publishMetrics(m *metrics.Registry, st *Stats, alg string) {
	m.Counter(metReplicationCopies).Add(st.CopiesS)
	m.Counter(metOrphans).Add(st.Orphans)
	m.Counter(metOverflows).Add(int64(st.Overflows))
	m.Counter(metSweepTests).Add(st.Tests)
	m.CounterVec(metSweepTouches, "alg").With(alg).Add(st.Touches)
}
