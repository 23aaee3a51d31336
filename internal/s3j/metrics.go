package s3j

// Metric names owned by package s3j: the redundancy/duplicate
// accounting of the seam-replication scheme as live process-lifetime
// counters.
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
)

// publishMetrics adds this join's totals to the process-lifetime
// counters; a no-op without a registry.
func (j *joiner) publishMetrics() {
	m := j.cfg.Metrics
	if m == nil {
		return
	}
	m.Counter(metDupSuppressed).Add(j.stats.RawResults - j.stats.Results)
	if j.cfg.Mode == ModeReplicate {
		m.Counter(metRPMTests).Add(j.stats.RawResults)
	}
	m.Counter(metReplicationCopies).Add(j.stats.CopiesR + j.stats.CopiesS)
}
