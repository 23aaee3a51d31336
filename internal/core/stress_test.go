package core

import (
	"sync"
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/jointest"
	"spatialjoin/internal/s3j"
)

// The correctness of every method must be independent of the device
// parameters (page size, positioning ratio, buffer size) — those only
// change what gets charged. This matrix also exercises the record codecs
// across odd page boundaries.
func TestDeviceParameterMatrix(t *testing.T) {
	R := datagen.LARR(1, 600).KPEs
	S := datagen.LAST(2, 600).KPEs
	want := jointest.Naive(R, S)
	for _, pageSize := range []int{128, 1024, 8192, 65536} {
		for _, bufPages := range []int{1, 4, 16} {
			for _, method := range []Method{PBSM, S3J, SSSJ, SHJ} {
				cfg := Config{
					Method:   method,
					Memory:   12 << 10,
					PageSize: pageSize,
					PT:       7,
					Transfer: time.Microsecond,
					BufPages: bufPages,
					S3JMode:  s3j.ModeReplicate,
				}
				got, res, err := Collect(R, S, cfg)
				if err != nil {
					t.Fatalf("page=%d buf=%d %s: %v", pageSize, bufPages, method, err)
				}
				if len(got) != len(want) {
					t.Fatalf("page=%d buf=%d %s: %d results, want %d",
						pageSize, bufPages, method, len(got), len(want))
				}
				if res.IO.CostUnits <= 0 {
					t.Fatalf("page=%d buf=%d %s: no I/O charged", pageSize, bufPages, method)
				}
			}
		}
	}
}

// Smaller pages mean more requests and therefore more positioning cost
// for the same data volume — the monotonicity the cost model promises.
func TestSmallerPagesCostMore(t *testing.T) {
	R := datagen.LARR(3, 2000).KPEs
	S := datagen.LAST(4, 2000).KPEs
	run := func(pageSize int) float64 {
		d := diskio.NewDisk(pageSize, 20, time.Microsecond)
		_, res, err := Collect(R, S, Config{Method: PBSM, Memory: 16 << 10, Disk: d})
		if err != nil {
			t.Fatal(err)
		}
		return res.IO.CostUnits
	}
	small := run(512)
	large := run(16384)
	if small <= large {
		t.Fatalf("512B pages (%g units) must cost more than 16KB pages (%g)", small, large)
	}
}

// A shared disk accumulates across joins; per-join deltas must still be
// correct (the Result.IO is a delta, not a total).
func TestSharedDiskDeltas(t *testing.T) {
	R := datagen.Uniform(5, 400, 0.03)
	d := diskio.NewDisk(0, 0, time.Microsecond)
	cfg := Config{Method: PBSM, Memory: 8 << 10, Disk: d}
	_, first, err := Collect(R, R, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := Collect(R, R, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.IO.CostUnits != second.IO.CostUnits {
		t.Fatalf("identical joins on a shared disk must charge identical deltas: %g vs %g",
			first.IO.CostUnits, second.IO.CostUnits)
	}
	if total := d.Stats().CostUnits; total != first.IO.CostUnits+second.IO.CostUnits {
		t.Fatalf("disk total %g != sum of deltas %g", total,
			first.IO.CostUnits+second.IO.CostUnits)
	}
}

// Result.IO is a snapshot delta on the disk's counters; without
// serialization, two joins racing on one shared disk would each
// attribute the other's I/O to itself. Join serializes whole joins per
// shared disk, so every concurrent delta must equal the solo delta and
// the disk total must be their exact sum.
func TestSharedDiskConcurrentJoinDeltas(t *testing.T) {
	R := datagen.Uniform(6, 400, 0.03)
	solo := func() float64 {
		d := diskio.NewDisk(0, 0, time.Microsecond)
		_, res, err := Collect(R, R, Config{Method: PBSM, Memory: 8 << 10, Disk: d})
		if err != nil {
			t.Fatal(err)
		}
		return res.IO.CostUnits
	}()

	const workers = 4
	d := diskio.NewDisk(0, 0, time.Microsecond)
	deltas := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, res, err := Collect(R, R, Config{Method: PBSM, Memory: 8 << 10, Disk: d})
			deltas[w], errs[w] = res.IO.CostUnits, err
		}(w)
	}
	wg.Wait()
	var sum float64
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if deltas[w] != solo {
			t.Fatalf("worker %d delta %g != solo delta %g (interleaved attribution)", w, deltas[w], solo)
		}
		sum += deltas[w]
	}
	if total := d.Stats().CostUnits; total != sum {
		t.Fatalf("disk total %g != sum of concurrent deltas %g", total, sum)
	}
}
