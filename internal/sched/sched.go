// Package sched is the shared work scheduler of the join stack: one
// bounded worker pool implementation that every parallel phase runs on —
// PBSM's partition pairs, SHJ's bucket joins, S³J's two partitioners, and
// extsort's run-formation chunks and merge groups. Centralizing the pool
// gives the stack one set of parallel-execution invariants instead of
// one bespoke worker loop per package:
//
//   - Cancellation: every worker polls the join's govern.Check before
//     each unit, so a canceled join unwinds within one unit per worker.
//   - Error propagation: the first error wins, later units are skipped,
//     and Run returns after every worker has wound down — no goroutine
//     outlives the call.
//   - Tracing: each parallel worker runs under its own child span, so
//     per-worker wall time and I/O deltas land in the trace tree.
//     Worker spans overlap in time; their I/O deltas are snapshots of
//     the shared disk counters and therefore overlap too — attribute
//     I/O to the enclosing phase span, not to a single worker.
//   - Determinism: units are handed out in index order, and the
//     Collector (see collector.go) restores emission order to exactly
//     the serial order when callers stream results.
//
// With fewer than two workers or fewer than two units, Run executes the
// units inline in index order on the calling goroutine — the serial
// path is the parallel path with the pool edited out, so a join at
// Parallel=1 behaves byte-for-byte like the pre-scheduler code.
package sched

import (
	"sync"

	"spatialjoin/internal/govern"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/trace"
)

// Options configures one Run.
type Options struct {
	// Workers is the maximum number of concurrent workers. Values < 2
	// (and unit counts < 2) select the inline serial path.
	Workers int
	// Name names the per-worker trace spans; default "worker".
	Name string
	// Span is the parent the per-worker spans nest under; nil disables
	// instrumentation. The serial path opens no extra spans.
	Span *trace.Span
	// Cancel is the owning join's cancellation checkpoint, polled
	// immediately before every unit; nil disables cancellation.
	Cancel *govern.Check
	// Metrics, when non-nil, publishes per-pool live series (units
	// queued/running/done, worker occupancy) labeled by Name.
	Metrics *metrics.Registry
}

func (o *Options) name() string {
	if o.Name == "" {
		return "worker"
	}
	return o.Name
}

// Run executes unit(w, i) for every i in [0, n), at most Options.Workers
// at a time. w is a stable worker-slot index in [0, workers): a slot
// runs its units sequentially on one goroutine, so callers may keep
// per-slot state (a sweep algorithm, a scratch buffer) without locking.
// Units are dispatched in index order; completion order is unspecified.
// The first unit error (or cancellation) is returned, remaining units
// are skipped, and Run does not return before all workers have exited.
func Run(n int, o Options, unit func(w, i int) error) error {
	workers := o.Workers
	if workers > n {
		workers = n
	}
	pm := o.poolMetrics()
	if pm != nil {
		pm.queued.Add(float64(n))
		defer pm.drain()
	}
	if workers < 2 || n < 2 {
		if pm != nil {
			pm.workers.Set(1)
		}
		for i := 0; i < n; i++ {
			if err := o.Cancel.Now(); err != nil {
				return err
			}
			pm.unitStart()
			err := unit(0, i)
			pm.unitEnd()
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Pre-filled closed channel: a worker that bails out early after an
	// error never leaves a sender blocked.
	ch := make(chan int, n)
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)

	var (
		errMu    sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		if pm != nil {
			pm.workers.Add(1)
		}
		go func(w int) {
			defer wg.Done()
			if pm != nil {
				defer pm.workers.Add(-1)
			}
			sp := o.Span.Child(o.name())
			defer sp.End()
			sp.SetAttr("slot", int64(w))
			for i := range ch {
				if failed() {
					return
				}
				if err := o.Cancel.Now(); err != nil {
					setErr(err)
					return
				}
				pm.unitStart()
				err := unit(w, i)
				pm.unitEnd()
				if err != nil {
					setErr(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}
