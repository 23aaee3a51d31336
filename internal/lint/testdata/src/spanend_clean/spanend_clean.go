// Package spanfix is the clean spanend twin: every span and activation
// is ended by "defer x.End()" on the line after it opens, or returned to
// a caller that does so.
package spanfix

import (
	"errors"

	"spatialjoin/internal/phase"
	"spatialjoin/internal/trace"
)

var errBoom = errors.New("boom")

// deferred is the one form: a defer on the next line covers every exit.
func deferred(rec *trace.Recorder, fail bool) error {
	sp := rec.Begin("phase")
	defer sp.End()
	if fail {
		return errBoom
	}
	return nil
}

// child spans follow the same contract as roots.
func child(parent *trace.Span) {
	c := parent.Child("sub")
	defer c.End()
	c.AddRecords(1)
}

// beginPhase is a joiner-style wrapper: it returns the activation, and
// its callers own it.
func beginPhase(led *phase.Ledger) phase.Activation {
	return led.Begin(1, "join")
}

// activation takes its activation from the wrapper and defers its End.
func activation(led *phase.Ledger, fail bool) error {
	pt := beginPhase(led)
	defer pt.End()
	if fail {
		return errBoom
	}
	pt.Span.AddRecords(1)
	return nil
}
