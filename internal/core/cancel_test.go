package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
)

func governedInputs() (R, S []geom.KPE) {
	return datagen.Uniform(7, 500, 0.01), datagen.Uniform(8, 500, 0.01)
}

// TestJoinDeadlineMidJoin: an already-expired deadline stops the join at
// its first checkpoint with a clean DeadlineExceeded error naming a
// phase, and no temp files survive.
func TestJoinDeadlineMidJoin(t *testing.T) {
	R, S := governedInputs()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	cfg := Config{Memory: 16 << 10, Ctx: ctx}
	d := cfg.disk()
	cfg.Disk = d
	_, err := Join(R, S, cfg, func(geom.Pair) {})
	var je *joinerr.JoinError
	if !errors.As(err, &je) {
		t.Fatalf("got %T: %v, want JoinError", err, err)
	}
	if je.Kind != joinerr.KindDeadlineExceeded || je.Phase == "" {
		t.Fatalf("got kind %v phase %q, want deadline-exceeded with a phase", je.Kind, je.Phase)
	}
	if !joinerr.IsCanceled(err) {
		t.Fatalf("IsCanceled false for %v", err)
	}
	if n := d.NumFiles(); n != 0 {
		t.Fatalf("%d temp files left by deadline-killed join: %v", n, d.FileNames())
	}
}

// TestJoinCanceledContext: a pre-canceled caller context aborts the join
// with kind Canceled.
func TestJoinCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	R, S := governedInputs()
	_, err := Join(R, S, Config{Memory: 16 << 10, Ctx: ctx}, func(geom.Pair) {})
	if joinerr.KindOf(err) != joinerr.KindCanceled {
		t.Fatalf("got %v (kind %v), want canceled", err, joinerr.KindOf(err))
	}
}

// TestOpenHonorsCancel: the iterator path surfaces cancellation through
// Err and terminates cleanly even when the consumer never pulls a row.
func TestOpenHonorsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	R, S := governedInputs()
	it := Open(R, S, Config{Memory: 16 << 10, Ctx: ctx})
	if _, ok := it.Next(); ok {
		// A pair may have been emitted before the first checkpoint; drain.
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
	it.Close()
	if err := it.Err(); !joinerr.IsCanceled(err) {
		t.Fatalf("iterator error %v, want cancellation", err)
	}
}
