package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/trace"
)

// TestRunSerialInline: fewer than two workers runs every unit inline, in
// index order, on the calling goroutine (slot 0).
func TestRunSerialInline(t *testing.T) {
	for _, workers := range []int{0, 1} {
		var order []int
		err := Run(5, Options{Workers: workers}, func(w, i int) error {
			if w != 0 {
				t.Fatalf("serial path used slot %d", w)
			}
			order = append(order, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d: unit order %v, want ascending", workers, order)
			}
		}
		if len(order) != 5 {
			t.Fatalf("ran %d units, want 5", len(order))
		}
	}
}

// TestRunParallelCoversAllUnits: every unit runs exactly once, worker
// slots stay within bounds, and concurrency never exceeds Workers.
func TestRunParallelCoversAllUnits(t *testing.T) {
	const n, workers = 64, 4
	var ran [n]atomic.Int32
	var cur, peak atomic.Int32
	err := Run(n, Options{Workers: workers}, func(w, i int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("slot %d out of range", w)
		}
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		ran[i].Add(1)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Fatalf("unit %d ran %d times", i, got)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent units, cap %d", p, workers)
	}
}

// TestRunFirstErrorWins: the first failing unit's error is returned and
// later units are skipped (no unit starts after the error is set).
func TestRunFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int32
	err := Run(100, Options{Workers: 4}, func(w, i int) error {
		if i == 3 {
			return boom
		}
		if i > 50 {
			after.Add(1)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if after.Load() > 4 {
		t.Fatalf("%d late units ran after the error; pool did not drain", after.Load())
	}
}

// TestRunHonorsCancellation: a canceled context surfaces through the
// per-unit checkpoint on both the serial and the parallel path.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	chk := govern.NewCheck(ctx)
	for _, workers := range []int{1, 4} {
		ran := 0
		err := Run(8, Options{Workers: workers, Cancel: chk}, func(w, i int) error {
			ran++
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran != 0 {
			t.Fatalf("workers=%d: %d units ran under a canceled context", workers, ran)
		}
	}
}

// TestRunWorkerSpans: parallel workers open one span each under the
// given parent; the serial path opens none.
func TestRunWorkerSpans(t *testing.T) {
	rec := trace.New()
	root := rec.Begin("root")
	if err := Run(8, Options{Workers: 3, Span: root, Name: "unit-pool"}, func(w, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := Run(8, Options{Workers: 1, Span: root, Name: "unit-pool"}, func(w, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	root.End()
	n := 0
	for _, sd := range rec.Spans() {
		if sd.Name == "unit-pool" {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("%d worker spans, want 3 (parallel run only)", n)
	}
}

// TestCollectorSerialOrder: regardless of completion order, the
// delivered sequence equals the serial unit order.
func TestCollectorSerialOrder(t *testing.T) {
	var got []geom.Pair
	c := NewCollector(4, func(p geom.Pair) { got = append(got, p) })
	// Units finish out of order: 2, 0, 3, 1.
	c.Emit(2, geom.Pair{R: 2, S: 0})
	c.Done(2)
	c.Emit(0, geom.Pair{R: 0, S: 0})
	c.Emit(0, geom.Pair{R: 0, S: 1})
	c.Done(0)
	c.Emit(3, geom.Pair{R: 3, S: 0})
	c.Done(3)
	c.Emit(1, geom.Pair{R: 1, S: 0})
	c.Done(1)
	want := []geom.Pair{{R: 0, S: 0}, {R: 0, S: 1}, {R: 1, S: 0}, {R: 2, S: 0}, {R: 3, S: 0}}
	if len(got) != len(want) {
		t.Fatalf("delivered %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %+v, want %+v (sequence %+v)", i, got[i], want[i], got)
		}
	}
}

// TestCollectorRecyclesBuffers: a flushed buffer serves the next unit that
// has to buffer, and pairs written into a recycled buffer still come out
// in unit order.
func TestCollectorRecyclesBuffers(t *testing.T) {
	var got []geom.Pair
	c := NewCollector(5, func(p geom.Pair) { got = append(got, p) })
	c.Emit(1, geom.Pair{R: 1, S: 0})
	c.Emit(1, geom.Pair{R: 1, S: 1})
	first := &c.buf[1][0]
	c.Done(1)
	c.Emit(0, geom.Pair{R: 0, S: 0})
	c.Done(0) // flushes unit 1; unit 2 is the head now
	if len(c.free) != 1 {
		t.Fatalf("free list holds %d buffers after one flush, want 1", len(c.free))
	}
	c.Emit(3, geom.Pair{R: 3, S: 0})
	if len(c.free) != 0 || &c.buf[3][0] != first {
		t.Fatal("unit 3 did not take the flushed buffer of unit 1")
	}
	c.Emit(4, geom.Pair{R: 4, S: 0})
	c.Done(4)
	c.Done(3)
	c.Emit(2, geom.Pair{R: 2, S: 0})
	c.Done(2)
	want := []geom.Pair{{R: 0, S: 0}, {R: 1, S: 0}, {R: 1, S: 1}, {R: 2, S: 0}, {R: 3, S: 0}, {R: 4, S: 0}}
	if len(got) != len(want) {
		t.Fatalf("delivered %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %+v, want %+v (sequence %+v)", i, got[i], want[i], got)
		}
	}
	if len(c.free) != 2 {
		t.Fatalf("free list holds %d buffers at the end, want 2", len(c.free))
	}
}

// TestCollectorStreamsHead: pairs of the emission head unit reach the
// sink immediately, preserving pipelining for in-order completions.
func TestCollectorStreamsHead(t *testing.T) {
	var got []geom.Pair
	c := NewCollector(2, func(p geom.Pair) { got = append(got, p) })
	c.Emit(0, geom.Pair{R: 7, S: 7})
	if len(got) != 1 {
		t.Fatal("head unit's pair was buffered instead of streamed")
	}
	c.Done(0)
	c.Emit(1, geom.Pair{R: 8, S: 8})
	if len(got) != 2 {
		t.Fatal("new head unit's pair was buffered after handoff")
	}
	c.Done(1)
}

// TestCollectorConcurrent exercises the collector under the race
// detector with many concurrent emitters.
func TestCollectorConcurrent(t *testing.T) {
	const n, per = 16, 50
	var got []geom.Pair
	c := NewCollector(n, func(p geom.Pair) { got = append(got, p) })
	err := Run(n, Options{Workers: 8}, func(w, i int) error {
		for k := 0; k < per; k++ {
			c.Emit(i, geom.Pair{R: uint64(i), S: uint64(k)})
		}
		c.Done(i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n*per {
		t.Fatalf("delivered %d pairs, want %d", len(got), n*per)
	}
	for i, p := range got {
		if want := (geom.Pair{R: uint64(i / per), S: uint64(i % per)}); p != want {
			t.Fatalf("pair %d = %+v, want %+v", i, p, want)
		}
	}
}

// TestCollectorEmitBatch: a batch is delivered as its pairs one by one
// would be — streamed at the head, buffered (without keeping the caller's
// slice) behind it — and batches and single pairs of one unit mix, under
// the race detector with concurrent emitters.
func TestCollectorEmitBatch(t *testing.T) {
	var got []geom.Pair
	c := NewCollector(2, func(p geom.Pair) { got = append(got, p) })
	c.EmitBatch(0, nil)
	batch := []geom.Pair{{R: 1, S: 0}, {R: 1, S: 1}}
	c.EmitBatch(1, batch)
	batch[0] = geom.Pair{R: 9, S: 9} // the caller reuses its slice
	c.EmitBatch(0, []geom.Pair{{R: 0, S: 0}, {R: 0, S: 1}})
	if len(got) != 2 {
		t.Fatalf("head unit's batch delivered %d pairs at once, want 2", len(got))
	}
	c.Done(0)
	c.Done(1)
	want := []geom.Pair{{R: 0, S: 0}, {R: 0, S: 1}, {R: 1, S: 0}, {R: 1, S: 1}}
	if len(got) != len(want) {
		t.Fatalf("delivered %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	const n, per = 16, 50
	got = nil
	c = NewCollector(n, func(p geom.Pair) { got = append(got, p) })
	err := Run(n, Options{Workers: 8}, func(w, i int) error {
		var out []geom.Pair
		for k := 0; k < per; k++ {
			if k%7 == 0 {
				c.EmitBatch(i, out)
				out = out[:0]
				c.Emit(i, geom.Pair{R: uint64(i), S: uint64(k)})
				continue
			}
			out = append(out, geom.Pair{R: uint64(i), S: uint64(k)})
		}
		c.EmitBatch(i, out)
		c.Done(i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n*per {
		t.Fatalf("delivered %d pairs, want %d", len(got), n*per)
	}
	for i, p := range got {
		if want := (geom.Pair{R: uint64(i / per), S: uint64(i % per)}); p != want {
			t.Fatalf("pair %d = %+v, want %+v", i, p, want)
		}
	}
}
