// Package mclean is the metricname analyzer's clean twin: every
// registration call conforms, so the analyzer must stay silent.
package mclean

import "spatialjoin/internal/metrics"

func register(r *metrics.Registry) {
	r.Counter(metSeen)
	r.Gauge(metDepth)
	r.Gauge(metFrac)
	r.Histogram(metLat)
	r.CounterVec(metDone, "pool")
	r.GaugeVec(metBusy, "pool")
	r.GaugeVec(metHeat, "shard")
	r.Gauge(metrics.JoinProgressTotal)
}
