package diskio

import "spatialjoin/internal/metrics"

// Metric names owned by package diskio. Process-lifetime totals across
// every disk a registry is attached to; per-join deltas remain the job
// of Stats (a join's Result.IO, and the delta every trace span carries),
// and chaos reconciles the two exactly.
const (
	// metReadRequests counts positioned read requests.
	metReadRequests = "diskio.read.requests"
	// metWriteRequests counts positioned write requests.
	metWriteRequests = "diskio.write.requests"
	// metReadBytes counts bytes transferred in (whole pages).
	metReadBytes = "diskio.read.bytes"
	// metWriteBytes counts bytes transferred out (whole pages).
	metWriteBytes = "diskio.write.bytes"
	// metRetries counts request retries after transient faults (the
	// recfile layer reports them via NoteRetry).
	metRetries = "diskio.retries"
	// metFaults counts injected storage faults by kind label:
	// torn-write, bit-flip, latency-fault.
	metFaults = "diskio.faults.injected"
)

// diskMetrics is the handle set one SetMetrics call resolves; requests
// load it with a single atomic pointer read.
type diskMetrics struct {
	reads      *metrics.Counter
	writes     *metrics.Counter
	readBytes  *metrics.Counter
	writeBytes *metrics.Counter
	retries    *metrics.Counter
	faults     *metrics.CounterVec
}

// SetMetrics attaches (or, with nil, detaches) a live-metrics registry.
// Attaching is idempotent — handles resolve to the same process-wide
// instruments — so a per-join attach to a shared disk is safe.
func (d *Disk) SetMetrics(r *metrics.Registry) {
	if r == nil {
		d.met.Store(nil)
		return
	}
	d.met.Store(&diskMetrics{
		reads:      r.Counter(metReadRequests),
		writes:     r.Counter(metWriteRequests),
		readBytes:  r.Counter(metReadBytes),
		writeBytes: r.Counter(metWriteBytes),
		retries:    r.Counter(metRetries),
		faults:     r.CounterVec(metFaults, "kind"),
	})
}

// meterRead records one read request of p pages on the live registry.
func (d *Disk) meterRead(p int64) {
	if dm := d.met.Load(); dm != nil {
		dm.reads.Inc()
		dm.readBytes.Add(p * int64(d.pageSize))
	}
}

// meterWrite records one write request of p pages on the live registry.
func (d *Disk) meterWrite(p int64) {
	if dm := d.met.Load(); dm != nil {
		dm.writes.Inc()
		dm.writeBytes.Add(p * int64(d.pageSize))
	}
}

// meterRetry records one transient-fault retry on the live registry.
func (d *Disk) meterRetry() {
	if dm := d.met.Load(); dm != nil {
		dm.retries.Inc()
	}
}

// meterFault records one injected fault of the given kind on the live
// registry.
func (d *Disk) meterFault(kind string) {
	if dm := d.met.Load(); dm != nil {
		dm.faults.With(kind).Inc()
	}
}
