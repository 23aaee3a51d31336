package core

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/jointest"
	"spatialjoin/internal/s3j"
)

// TestJoinRejectsInvalidGeometry: every method must refuse NaN/Inf
// coordinates and inverted rectangles with a descriptive error instead
// of silently computing a wrong (or empty) result.
func TestJoinRejectsInvalidGeometry(t *testing.T) {
	good := geom.KPE{ID: 1, Rect: geom.NewRect(0.1, 0.1, 0.4, 0.4)}
	cases := []struct {
		name string
		bad  geom.KPE
		want string // substring of the error
	}{
		{"nan-low", geom.KPE{ID: 7, Rect: geom.Rect{XL: math.NaN(), YL: 0, XH: 1, YH: 1}}, "non-finite"},
		{"nan-high", geom.KPE{ID: 7, Rect: geom.Rect{XL: 0, YL: 0, XH: 1, YH: math.NaN()}}, "non-finite"},
		{"pos-inf", geom.KPE{ID: 7, Rect: geom.Rect{XL: 0, YL: 0, XH: math.Inf(1), YH: 1}}, "non-finite"},
		{"neg-inf", geom.KPE{ID: 7, Rect: geom.Rect{XL: math.Inf(-1), YL: 0, XH: 1, YH: 1}}, "non-finite"},
		{"inverted-x", geom.KPE{ID: 7, Rect: geom.Rect{XL: 0.9, YL: 0.1, XH: 0.2, YH: 0.5}}, "inverted"},
		{"inverted-y", geom.KPE{ID: 7, Rect: geom.Rect{XL: 0.1, YL: 0.8, XH: 0.5, YH: 0.2}}, "inverted"},
	}
	for _, method := range []Method{PBSM, S3J, SSSJ, SHJ} {
		for _, tc := range cases {
			for _, side := range []string{"R", "S"} {
				R, S := []geom.KPE{good, good}, []geom.KPE{good}
				if side == "R" {
					R = append(R, tc.bad)
				} else {
					S = append(S, tc.bad)
				}
				_, _, err := Collect(R, S, Config{Method: method, Memory: 1 << 20})
				if err == nil {
					t.Fatalf("%s/%s/%s: invalid input accepted", method, tc.name, side)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s/%s/%s: error %q does not mention %q", method, tc.name, side, err, tc.want)
				}
				if !strings.Contains(err.Error(), side+"[") {
					t.Fatalf("%s/%s/%s: error %q does not locate the bad record", method, tc.name, side, err)
				}
			}
		}
	}
}

// TestJoinAcceptsDegenerateButValidGeometry: points and zero-width
// rectangles are fine — only truly malformed input is rejected.
func TestJoinAcceptsDegenerateButValidGeometry(t *testing.T) {
	R := []geom.KPE{{ID: 1, Rect: geom.Rect{XL: 0.5, YL: 0.5, XH: 0.5, YH: 0.5}}} // a point
	S := []geom.KPE{{ID: 2, Rect: geom.NewRect(0, 0, 1, 1)}}
	pairs, _, err := Collect(R, S, Config{Memory: 1 << 20})
	if err != nil {
		t.Fatalf("degenerate rectangle rejected: %v", err)
	}
	if len(pairs) != 1 {
		t.Fatalf("point-in-rect join returned %d pairs", len(pairs))
	}
}

// TestReplicatedS3JJoinsAnOverflowingRectangle: a rectangle with finite
// corners whose width overflows to +Inf passes validation, so replicated
// S³J must place it (at the root, the level of every extent ≥ 1) and
// join it like any other, not spin on its size level.
func TestReplicatedS3JJoinsAnOverflowingRectangle(t *testing.T) {
	R := []geom.KPE{
		{ID: 1, Rect: geom.Rect{XL: -math.MaxFloat64, YL: 0.25, XH: math.MaxFloat64, YH: 0.5}},
		{ID: 2, Rect: geom.NewRect(0.8, 0.8, 0.9, 0.9)},
	}
	S := []geom.KPE{
		{ID: 3, Rect: geom.NewRect(0.1, 0.3, 0.2, 0.4)},
		{ID: 4, Rect: geom.NewRect(0.6, 0.45, 0.7, 0.6)},
		{ID: 5, Rect: geom.NewRect(0.6, 0.6, 0.7, 0.7)},
	}
	type out struct {
		pairs []geom.Pair
		err   error
	}
	done := make(chan out, 1)
	go func() {
		pairs, _, err := Collect(R, S, Config{Method: S3J, S3JMode: s3j.ModeReplicate, Memory: 1 << 20})
		done <- out{pairs, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		jointest.AssertEqual(t, o.pairs, jointest.Naive(R, S))
	case <-time.After(20 * time.Second):
		t.Fatal("replicated S3J did not return within 20 s")
	}
}

// TestIteratorRecoversProducerPanic: a panic inside the join must
// surface via Err, terminate the iterator, and leak no goroutine.
func TestIteratorRecoversProducerPanic(t *testing.T) {
	orig := joinFn
	defer func() { joinFn = orig }()
	joinFn = func(R, S []geom.KPE, cfg Config, emit func(geom.Pair)) (Result, error) {
		emit(geom.Pair{R: 1, S: 1})
		panic("boom: injected join failure")
	}

	before := runtime.NumGoroutine()
	it := Open(nil, nil, Config{Memory: 1 << 20})
	n := 0
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		n++
	}
	if err := it.Err(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Err = %v, want recovered panic", err)
	}
	if n != 1 {
		t.Fatalf("results before panic = %d, want 1", n)
	}
	it.Close() // must be safe after exhaustion

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak after recovered panic: %d > %d", g, before)
	}
}

// TestS3JScanPanicReleasesMergeStage: at two workers S³J's scan runs its
// merge on a goroutine of its own, which holds every run reader. A panic
// in the result consumer mid-scan, which Open recovers, must still stop
// that goroutine and leave no run file behind.
func TestS3JScanPanicReleasesMergeStage(t *testing.T) {
	orig := joinFn
	defer func() { joinFn = orig }()
	var during int
	joinFn = func(R, S []geom.KPE, cfg Config, emit func(geom.Pair)) (Result, error) {
		n := 0
		return Join(R, S, cfg, func(p geom.Pair) {
			emit(p)
			if n++; n == 100 {
				during = runtime.NumGoroutine()
				panic("boom: consumer failure mid-scan")
			}
		})
	}
	R := datagen.LARR(11, 20000).KPEs
	S := datagen.LAST(12, 20000).KPEs
	d := diskio.NewDisk(0, 0, 0)
	before := runtime.NumGoroutine()
	it := Open(R, S, Config{Method: S3J, S3JMode: s3j.ModeReplicate, Disk: d, Memory: 64 << 10, Parallel: 2})
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if err := it.Err(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Err = %v, want the recovered panic", err)
	}
	it.Close()
	// Open's producer and the merge stage were both running.
	if during < before+2 {
		t.Fatalf("%d goroutines at the panic, %d before the join: the merge stage did not run on its own", during, before)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines before the join, %d after the recovered panic", before, g)
	}
	if n := d.NumFiles(); n != 0 {
		t.Fatalf("%d run files left behind: %v", n, d.FileNames())
	}
}

// TestIteratorPanicWithEarlyClose: closing before the panic must not
// deadlock Close.
func TestIteratorPanicWithEarlyClose(t *testing.T) {
	orig := joinFn
	defer func() { joinFn = orig }()
	release := make(chan struct{})
	joinFn = func(R, S []geom.KPE, cfg Config, emit func(geom.Pair)) (Result, error) {
		for i := 0; i < 1000; i++ {
			emit(geom.Pair{R: uint64(i), S: uint64(i)})
		}
		<-release
		panic("late boom")
	}
	it := Open(nil, nil, Config{Memory: 1 << 20})
	it.Next()
	close(release)
	it.Close()
	if err := it.Err(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Err = %v, want recovered panic", err)
	}
}
