// Package spanfix is a spanend fixture: spans created here leak on at
// least one path out of their scope.
package spanfix

import (
	"errors"

	"spatialjoin/internal/phase"
	"spatialjoin/internal/trace"
)

var errBoom = errors.New("boom")

// leakOnReturn ends the span on the success path only; the early return
// escapes with the span still open.
func leakOnReturn(rec *trace.Recorder, fail bool) error {
	sp := rec.Begin("phase") // want spanend
	if fail {
		return errBoom
	}
	sp.End()
	return nil
}

// leakFallThrough never ends the span at all.
func leakFallThrough(rec *trace.Recorder) {
	sp := rec.Begin("phase") // want spanend
	sp.AddRecords(1)
}

// leakOnReassign overwrites a live span without closing it first.
func leakOnReassign(rec *trace.Recorder) {
	sp := rec.Begin("first") // want spanend
	sp = rec.Begin("second")
	sp.End()
}

// discard drops the span on the floor: it can never be ended.
func discard(rec *trace.Recorder) {
	rec.Begin("phase") // want spanend
}

// leakActivation ends the phase activation on the success path only: the
// early return drops the phase's span and its charge.
func leakActivation(led *phase.Ledger, fail bool) error {
	pt := led.Begin(0, "partition") // want spanend
	if fail {
		return errBoom
	}
	pt.End()
	return nil
}

// beginPhase is a joiner-style wrapper: its callers own what it returns.
func beginPhase(led *phase.Ledger) phase.Activation {
	return led.Begin(1, "join")
}

// leakWrapped never ends an activation it got through a wrapper.
func leakWrapped(led *phase.Ledger) {
	pt := beginPhase(led) // want spanend
	pt.Span.AddRecords(1)
}
