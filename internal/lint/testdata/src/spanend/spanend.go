// Package spanfix is a spanend fixture: spans created here leak on at
// least one path out of their scope, or close in some other way than
// "defer x.End()" on the line after they open.
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
	sp.End() // want spanend
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
	sp = rec.Begin("second") // want spanend
	sp.End()                 // want spanend
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
	pt.End() // want spanend
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

// manual ends the span by hand on each path: correct today, but the next
// early return added between them leaks it.
func manual(rec *trace.Recorder, fail bool) error {
	sp := rec.Begin("phase") // want spanend
	if fail {
		sp.End() // want spanend
		return errBoom
	}
	sp.End() // want spanend
	return nil
}

// lateDefer registers the defer after an early return that escapes with
// the span open.
func lateDefer(rec *trace.Recorder, fail bool) error {
	sp := rec.Begin("phase") // want spanend
	if fail {
		return errBoom
	}
	defer sp.End()
	return nil
}

// varDecl opens the span in a var declaration, not an assignment.
func varDecl(rec *trace.Recorder) {
	var sp = rec.Begin("phase") // want spanend
	defer sp.End()
	sp.AddRecords(1)
}

func use(sp *trace.Span) { sp.AddRecords(1) }

// nested hands the span to a callee that does not end it.
func nested(rec *trace.Recorder) {
	use(rec.Begin("phase")) // want spanend
}

func wrap(sp *trace.Span) *trace.Span { return sp }

// returnNested returns wrap's result: the span it opened is an argument,
// not itself the returned value.
func returnNested(rec *trace.Recorder) *trace.Span {
	return wrap(rec.Begin("phase")) // want spanend
}

// doubleEnd ends the span by hand under a deferred End, which records it
// twice.
func doubleEnd(rec *trace.Recorder) {
	sp := rec.Begin("phase")
	defer sp.End()
	sp.End() // want spanend
}
