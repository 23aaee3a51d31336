// Package joinerr defines the structured error type every join method
// returns when intermediate I/O fails: a JoinError names the method, the
// phase it was in, and (when known) the simulated file involved, wrapping
// the underlying cause so callers can test it with errors.Is/As.
//
// The invariant the error type supports is wrong-answer-never: a join
// either delivers the exact duplicate-free result set, or it fails with a
// JoinError — it never silently returns a partial or corrupted result.
package joinerr

import (
	"context"
	"errors"
	"fmt"
)

// Kind classifies why a join unwound, so a server embedding the library
// can route the outcomes differently: I/O failures are retryable
// elsewhere, cancellations are the caller's own doing, deadline
// overruns want a bigger budget.
type Kind int

const (
	// KindIO is the default: an I/O or integrity failure inside the
	// join (transient fault beyond the retry budget, checksum mismatch,
	// torn frame).
	KindIO Kind = iota
	// KindCanceled means the caller's context was canceled and the join
	// unwound cooperatively.
	KindCanceled
	// KindDeadlineExceeded means the join's deadline passed before it
	// finished.
	KindDeadlineExceeded
	// KindShard means a shard worker process failed — it was killed, it
	// exited abnormally, it stalled past its heartbeat window, or its
	// frame stream failed to decode — and the coordinator exhausted its
	// restart budget. The cause chain carries the worker's exit status
	// (shard.WorkerExitError) when the process died. Its value is
	// written out because workerFailure.Kind carries the number across
	// processes.
	KindShard Kind = 4
)

// String names the kind. Unknown values print as "io", the safe
// routing default (retryable elsewhere).
func (k Kind) String() string {
	switch k {
	case KindCanceled:
		return "canceled"
	case KindDeadlineExceeded:
		return "deadline-exceeded"
	case KindShard:
		return "shard-failed"
	default:
		return "io"
	}
}

// JoinError reports an I/O, integrity, cancellation or shard failure
// inside a join method.
type JoinError struct {
	// Method is the join method name ("pbsm", "s3j", "sssj", "shj").
	Method string
	// Phase is the method phase during which the failure occurred
	// ("partition", "sort", "join", ...).
	Phase string
	// File names the simulated disk file involved, when known.
	File string
	// Kind classifies the failure; KindIO unless the cause is a context
	// error or the wrapper says otherwise.
	Kind Kind
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *JoinError) Error() string {
	if e.File != "" {
		return fmt.Sprintf("%s: %s phase: file %s: %v", e.Method, e.Phase, e.File, e.Err)
	}
	return fmt.Sprintf("%s: %s phase: %v", e.Method, e.Phase, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *JoinError) Unwrap() error { return e.Err }

// filer is implemented by errors that know which file they concern
// (diskio.FaultError, recfile.CorruptError).
type filer interface{ FileName() string }

// Wrap attaches method and phase context to err, extracting the file
// name from the cause when it carries one and classifying context
// errors as KindCanceled/KindDeadlineExceeded. A nil err stays nil; an
// err that is already a JoinError is returned unchanged (innermost
// context wins — it names the phase closest to the failure).
func Wrap(method, phase string, err error) error {
	return WrapAs(method, phase, Classify(err), err)
}

// WrapAs is Wrap with an explicit kind, for failures whose cause does
// not self-classify (a worker failure is a plain error).
func WrapAs(method, phase string, kind Kind, err error) error {
	if err == nil {
		return nil
	}
	var je *JoinError
	if errors.As(err, &je) {
		return err
	}
	out := &JoinError{Method: method, Phase: phase, Kind: kind, Err: err}
	var f filer
	if errors.As(err, &f) {
		out.File = f.FileName()
	}
	return out
}

// Classify derives the Kind of a cause: context errors map to the
// cancellation kinds, everything else is KindIO.
func Classify(err error) Kind {
	switch {
	case errors.Is(err, context.Canceled):
		return KindCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return KindDeadlineExceeded
	}
	return KindIO
}

// KindOf returns the Kind of a JoinError anywhere in err's chain, or
// classifies the raw error if there is none.
func KindOf(err error) Kind {
	var je *JoinError
	if errors.As(err, &je) {
		return je.Kind
	}
	return Classify(err)
}

// IsCanceled reports whether err is a cooperative abort: a cancellation
// or a deadline overrun (but not a shard or I/O failure).
func IsCanceled(err error) bool {
	k := KindOf(err)
	return k == KindCanceled || k == KindDeadlineExceeded
}
