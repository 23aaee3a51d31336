package s3j

import "fmt"

// Metric names owned by package s3j: the redundancy/duplicate
// accounting of the seam-replication scheme and the sweep's work as
// process-lifetime series.
const (
	// metDupSuppressed counts scan results suppressed by duplicate
	// elimination (ModeReplicate's reference-point test).
	metDupSuppressed = "s3j.dup.suppressed"
	// metRPMTests counts reference-point tests (one per raw result
	// under ModeReplicate).
	metRPMTests = "s3j.rpm.tests"
	// metReplicationCopies counts level-record KPE copies written.
	metReplicationCopies = "s3j.replication.copies"
	// metRunsWritten counts scan-order runs the partitioners wrote.
	metRunsWritten = "s3j.runs.written"
	// metSweepTests counts the internal algorithm's candidate tests.
	metSweepTests = "s3j.sweep.tests"
	// metSweepTouches counts the status-structure nodes the internal
	// algorithm visited, by "alg" label (list, trie, nested).
	metSweepTouches = "s3j.sweep.touches"
	// metCopiesLevel counts level records written (both relations) by
	// two-digit "level" label — the distribution behind Figure 8.
	metCopiesLevel = "s3j.copies.level"
	// metLevelFill is the distribution of those per-level totals, one
	// observation per level and join.
	metLevelFill = "s3j.level.fill"
)

// publishMetrics adds this join's totals to the process-lifetime
// series; the handles of a nil registry are no-ops.
func (j *joiner) publishMetrics() {
	m := j.cfg.Metrics
	m.Counter(metDupSuppressed).Add(j.stats.RawResults - j.stats.Results)
	if j.cfg.Mode == ModeReplicate {
		m.Counter(metRPMTests).Add(j.stats.RawResults)
	}
	m.Counter(metReplicationCopies).Add(j.stats.CopiesR + j.stats.CopiesS)
	m.Counter(metSweepTests).Add(j.stats.Tests)
	m.CounterVec(metSweepTouches, "alg").With(j.alg.Name()).Add(j.stats.Touches)
	copies, fill := m.CounterVec(metCopiesLevel, "level"), m.Histogram(metLevelFill)
	for l, n := range j.stats.LevelRecordsR {
		if l < len(j.stats.LevelRecordsS) {
			n += j.stats.LevelRecordsS[l]
		}
		copies.With(fmt.Sprintf("%02d", l)).Add(n)
		fill.Observe(float64(n))
	}
}
