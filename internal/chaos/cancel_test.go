// Cancellation chaos: deterministic mid-flight aborts at seeded points
// across every join variant. The contract under test is the tentpole's:
// a canceled join unwinds with a clean JoinError of kind Canceled naming
// method and phase, leaves zero temp files on the simulated disk, leaks
// no goroutines, and its abort still leaves a coherent trace (closed
// span tree, "cancel" instant event, core.joins.aborted counter).
package chaos

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/trace"
)

// countdownCtx is a context that cancels itself after a fixed number of
// Err polls. Every cancellation checkpoint in the stack — govern.Check
// points, the disk's per-request hook — funnels through Err, so the
// countdown turns "cancel at a random wall-clock moment" into "cancel at
// exactly the n-th checkpoint", reproducible across runs. Done returns
// nil (no channel-based wakeup); the join stack is purely poll-based, so
// this exercises the cooperative path alone.
type countdownCtx struct {
	remaining int64        // polls left before Err starts firing
	polls     int64        // total Err calls observed
	firedAt   atomic.Int64 // UnixNano of the first firing poll, 0 before it
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(key any) any           { return nil }
func (c *countdownCtx) Err() error {
	atomic.AddInt64(&c.polls, 1)
	if atomic.AddInt64(&c.remaining, -1) <= 0 {
		c.firedAt.CompareAndSwap(0, time.Now().UnixNano())
		return context.Canceled
	}
	return nil
}

// sinceFired is the wall time since the context first reported Canceled.
func (c *countdownCtx) sinceFired() time.Duration {
	return time.Duration(time.Now().UnixNano() - c.firedAt.Load())
}

// runCancelable runs one join that cancels itself at the n-th checkpoint
// poll and returns the context, the disk (for orphan-file checks), the
// recorder, the result pairs and the error.
func runCancelable(v variant, n int64, rec *trace.Recorder, reg *metrics.Registry) (*countdownCtx, *diskio.Disk, []geom.Pair, error) {
	d := diskio.NewDisk(4096, 20, time.Microsecond)
	ctx := &countdownCtx{remaining: n}
	cfg := v.cfg
	cfg.Memory = memory
	cfg.Disk = d
	cfg.Ctx = ctx
	cfg.Trace = rec
	cfg.Metrics = reg
	R, S := dataset()
	pairs, _, err := core.Collect(R, S, cfg)
	return ctx, d, pairs, err
}

// TestCancellationSweep cancels each variant at `schedule` checkpoint
// positions spread over the join's full poll range: a probe run counts
// the total checkpoint polls of an uncanceled join, then the sweep
// replays the join canceling at the 1st, ..., last poll. Every canceled
// run must fail with JoinError{Kind: Canceled} naming method and phase
// and leave zero files on the disk; across the sweep each variant must
// die in at least two distinct phases (early cancels hit partitioning,
// late ones the join/sweep phases).
func TestCancellationSweep(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, v := range variants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			// Baseline for the rare run that outruns its cancel point
			// (parallel scheduling can shift poll counts slightly).
			want, _, err := runOnce(v, nil)
			if err != nil {
				t.Fatalf("baseline failed: %v", err)
			}
			sortPairs(want)

			probe, d, _, err := runCancelable(v, math.MaxInt64, nil, nil)
			if err != nil {
				t.Fatalf("probe run failed: %v", err)
			}
			total := atomic.LoadInt64(&probe.polls)
			if total < schedule {
				t.Fatalf("probe counted only %d checkpoint polls; sweep would be vacuous", total)
			}
			if got := d.NumFiles(); got != 0 {
				t.Fatalf("uncanceled run left %d temp files: %v", got, d.FileNames())
			}

			canceled := 0
			phases := map[string]int{}
			var worst time.Duration // cancel-to-return wall time; logged, not asserted
			for i := int64(0); i < schedule; i++ {
				n := 1 + i*(total-1)/(schedule-1)
				ctx, d, got, err := runCancelable(v, n, nil, nil)
				if err != nil {
					worst = max(worst, ctx.sinceFired())
				}
				if files := d.NumFiles(); files != 0 {
					t.Fatalf("cancel at poll %d: %d orphan temp files: %v", n, files, d.FileNames())
				}
				if err == nil {
					// Completed before the cancel point fired (possible only
					// when scheduling shifted the poll count below n).
					sortPairs(got)
					if !equalPairs(got, want) {
						t.Fatalf("cancel at poll %d: run completed with a wrong answer", n)
					}
					continue
				}
				var je *joinerr.JoinError
				if !errors.As(err, &je) {
					t.Fatalf("cancel at poll %d: unstructured error %T: %v", n, err, err)
				}
				if je.Kind != joinerr.KindCanceled {
					t.Fatalf("cancel at poll %d: kind %v, want canceled (err: %v)", n, je.Kind, err)
				}
				if je.Method == "" || je.Phase == "" {
					t.Fatalf("cancel at poll %d: JoinError missing attribution: %+v", n, je)
				}
				if !joinerr.IsCanceled(err) {
					t.Fatalf("cancel at poll %d: IsCanceled false for %v", n, err)
				}
				canceled++
				phases[je.Phase]++
			}
			if canceled == 0 {
				t.Fatal("no run was canceled; sweep vacuous")
			}
			if len(phases) < 2 {
				t.Fatalf("all cancellations died in one phase %v; sweep did not cover the method's phases", phases)
			}
			t.Logf("%s: %d/%d canceled across phases %v (probe polls %d), worst cancel-to-return %v", v.name, canceled, schedule, phases, total, worst)
		})
	}

	// Every canceled run must wind down its producer/worker goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak after cancellation sweep: %d > %d", g, before)
	}
}

// TestCanceledJoinTrace: an aborted join must still leave a coherent
// footprint — in the trace the root span closes, a "cancel" instant
// event names the dying phase and Coverage still computes over the closed
// tree; in the registry core.joins.aborted is counted and the checkpoint
// count that funds the overhead budget is recorded.
func TestCanceledJoinTrace(t *testing.T) {
	for _, v := range variants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			probe, _, _, err := runCancelable(v, math.MaxInt64, nil, nil)
			if err != nil {
				t.Fatalf("probe run failed: %v", err)
			}
			rec, reg := trace.New(), metrics.New()
			_, _, _, err = runCancelable(v, atomic.LoadInt64(&probe.polls)/2, rec, reg)
			if !joinerr.IsCanceled(err) {
				t.Fatalf("mid-join cancel did not cancel: %v", err)
			}
			var je *joinerr.JoinError
			errors.As(err, &je)

			counts := reg.Snapshot() // a fresh registry: the snapshot is this join's delta
			if got := counts.Value("core.joins.aborted"); got != 1 {
				t.Fatalf("core.joins.aborted = %v, want 1", got)
			}
			if got := counts.Value("core.cancel.checks"); got <= 0 {
				t.Fatalf("core.cancel.checks = %v, want > 0 (funds the overhead budget)", got)
			}
			// The root span is named join:<method>; pbsm-parallel and
			// pbsm-dupsort share pbsm's.
			method := v.cfg.Method
			if method == "" {
				method = core.PBSM
			}
			var sawCancel, sawRoot bool
			for _, sd := range rec.Spans() {
				if sd.Name == "cancel" && sd.Instant {
					sawCancel = true
					var phase string
					for _, a := range sd.Attrs {
						if a.Key == "phase" {
							phase = a.Str
						}
					}
					if phase == "" || phase != je.Phase {
						t.Fatalf("cancel event phase %q, want %q", phase, je.Phase)
					}
				}
				if sd.Parent == 0 && !sd.Instant && sd.Name == "join:"+string(method) {
					sawRoot = true
				}
			}
			if !sawCancel {
				t.Fatal("no 'cancel' instant event recorded for the aborted join")
			}
			if !sawRoot {
				t.Fatal("root span did not close on the aborted join")
			}
			if cov := rec.Coverage(); cov < 0 || cov > 1 {
				t.Fatalf("Coverage on aborted trace = %v, want [0,1]", cov)
			}
		})
	}
}
