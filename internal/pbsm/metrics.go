package pbsm

import (
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/recfile"
)

// Metric names owned by package pbsm: the paper's redundancy /
// duplicate accounting and the sweep's work as process-lifetime series
// (the only home of these counts besides the join's own Stats), plus
// partition-pair progress.
const (
	// metPairsDone counts top-level partition pairs completed.
	metPairsDone = "pbsm.pairs.done"
	// metDupSuppressed counts join-phase results suppressed by the
	// duplicate-elimination strategy.
	metDupSuppressed = "pbsm.dup.suppressed"
	// metRPMTests counts reference-point tests (one per raw result
	// under DupRPM), added live, once per kernel call.
	metRPMTests = "pbsm.rpm.tests"
	// metReplicationCopies counts KPE copies written by partitioning.
	metReplicationCopies = "pbsm.replication.copies"
	// metHealed counts partition pairs re-derived after checksum
	// failures.
	metHealed = "pbsm.healed"
	// metRepartitions counts repartitioning splits.
	metRepartitions = "pbsm.repartitions"
	// metSweepTests counts the internal algorithm's candidate tests.
	metSweepTests = "pbsm.sweep.tests"
	// metSweepTouches counts the status-structure nodes the internal
	// algorithm visited, by "alg" label (list, trie, nested).
	metSweepTouches = "pbsm.sweep.touches"
	// metPlanOversizedTiles counts tiles whose own records exceed Memory:
	// no table can fit them, their partition repartitions whatever the
	// planner does. Nonzero means "the plan could not fit", read directly
	// instead of inferred from metRepartitions.
	metPlanOversizedTiles = "pbsm.plan.oversized.tiles"
	// metPartitionFill is the distribution of records (both relations)
	// over the P top-level partitions: the fill skew.
	metPartitionFill = "pbsm.partition.fill"
)

// publishMetrics adds the totals of st, this join's Stats, to the
// process-lifetime counters: how many raw join-phase results the
// duplicate-elimination strategy suppressed, how much the partitioning
// replicated, and what the internal algorithm's status structure cost in
// traversal work. The handles of a nil registry are no-ops. The
// per-result RPM test counter is not published here: every kernel call
// already added its share (fold).
func (j *joiner) publishMetrics(st *Stats) {
	m := j.cfg.Metrics
	m.Counter(metDupSuppressed).Add(st.RawResults - st.Results)
	m.Counter(metReplicationCopies).Add(st.CopiesR + st.CopiesS)
	m.Counter(metSweepTests).Add(st.Tests)
	m.CounterVec(metSweepTouches, "alg").With(j.ex.Algorithm()).Add(st.Touches)
	m.Counter(metHealed).Add(int64(st.Healed))
	m.Counter(metRepartitions).Add(int64(st.Repartitions))
}

// initProgress prices every top-level partition pair with the same
// iocost.PairCost model the shard coordinator assigns by, and declares
// the sum as the join's planned cost. NumKPEs is length-derived, so
// pricing here is free of I/O charge. No-op without a Progress.
func (j *joiner) initProgress(filesR, filesS []*diskio.File) {
	if j.cfg.Progress == nil {
		return
	}
	j.pairCost = make([]float64, len(filesR))
	total := 0.0
	for i := range filesR {
		c := iocost.PairCost(recfile.NumKPEs(filesR[i]), recfile.NumKPEs(filesS[i]), j.cfg.Memory, j.dev)
		if c <= 0 {
			c = 1 // empty pairs still count one unit so done can reach total
		}
		j.pairCost[i] = c
		total += c
	}
	j.cfg.Progress.SetTotal(total)
}

// pairDone reports top pair i complete: one unit on the pairs counter
// and the pair's planned cost on the progress estimator. Safe from
// concurrent scheduler units (slice is read-only, updates atomic).
func (j *joiner) pairDone(i int) {
	j.pairsDone.Inc()
	if j.pairCost != nil {
		j.cfg.Progress.Add(j.pairCost[i])
	}
}
