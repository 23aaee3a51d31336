// Package mfix is a metricname fixture: registration calls on
// *metrics.Registry must pass dotted-lowercase consts declared in the
// package's metrics.go (or *_metrics.go).
package mfix

import "spatialjoin/internal/metrics"

// metWrongFile is a conforming value declared in the wrong file.
const metWrongFile = "mfix.wrong.file"

func register(r *metrics.Registry, dynamic string) {
	r.Counter(metGood)
	r.CounterVec(metGoodVec, "pool")
	r.Counter("mfix.literal.name") // want metricname
	r.Gauge(metWrongFile)          // want metricname
	r.Gauge(metBadCase)            // want metricname
	r.Histogram(metNoDots)         // want metricname
	r.GaugeVec(dynamic, "kind")    // want metricname
	r.GaugeVec("mfix.x.y"+"", "")  // want metricname
}
