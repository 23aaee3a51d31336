// Package spanfix is the clean spanend twin: every span closes on every
// path, by defer, by an ender closure, or by an End on each return
// path.
package spanfix

import (
	"errors"

	"spatialjoin/internal/phase"
	"spatialjoin/internal/trace"
)

var errBoom = errors.New("boom")

// deferred is the preferred form: one defer covers every exit.
func deferred(rec *trace.Recorder, fail bool) error {
	sp := rec.Begin("phase")
	defer sp.End()
	if fail {
		return errBoom
	}
	return nil
}

// enderClosure registers a named closing closure before the span even
// exists; the closure reads the variable at function exit.
func enderClosure(rec *trace.Recorder) {
	var sp *trace.Span
	endPhase := func() {
		sp.End()
	}
	defer endPhase()
	sp = rec.Begin("phase")
	sp.AddRecords(1)
}

// manual ends the span on each return path explicitly.
func manual(rec *trace.Recorder, fail bool) error {
	sp := rec.Begin("phase")
	if fail {
		sp.End()
		return errBoom
	}
	sp.End()
	return nil
}

// child spans follow the same contract as roots.
func child(parent *trace.Span) {
	c := parent.Child("sub")
	defer c.End()
	c.AddRecords(1)
}

// activation: a phase activation follows the span contract — deferred, or
// ended before each return and before it is reassigned to the next phase.
func activation(led *phase.Ledger, fail bool) error {
	pt := led.Begin(0, "partition")
	if fail {
		pt.End()
		return errBoom
	}
	pt.End()
	pt = led.Begin(1, "join")
	defer pt.End()
	pt.Span.AddRecords(1)
	return nil
}
