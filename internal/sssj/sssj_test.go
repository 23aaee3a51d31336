package sssj

import (
	"math"
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/jointest"
	"spatialjoin/internal/sweep"
)

func newDisk() *diskio.Disk { return diskio.NewDisk(1024, 10, time.Millisecond) }

func run(t *testing.T, R, S []geom.KPE, cfg Config) ([]geom.Pair, Stats) {
	t.Helper()
	if cfg.Disk == nil {
		cfg.Disk = newDisk()
	}
	var got []geom.Pair
	st, err := Join(R, S, cfg, func(p geom.Pair) { got = append(got, p) })
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	return got, st
}

func TestConfigErrors(t *testing.T) {
	if _, err := Join(nil, nil, Config{Memory: 1}, nil); err == nil {
		t.Error("nil disk must error")
	}
	if _, err := Join(nil, nil, Config{Disk: newDisk()}, nil); err == nil {
		t.Error("zero memory must error")
	}
}

func TestNoDuplicatesEver(t *testing.T) {
	R := datagen.LARR(3, 1500).KPEs
	got, _ := run(t, R, R, Config{Memory: 8 << 10})
	jointest.AssertEqual(t, got, jointest.Naive(R, R))
}

func TestSweepStatusStaysSmall(t *testing.T) {
	// The defining property: only rectangles stabbed by the sweep line
	// are resident, a tiny fraction of the input for line-segment data.
	R := datagen.LAST(4, 5000).KPEs
	S := datagen.LAST(5, 5000).KPEs
	_, st := run(t, R, S, Config{Memory: 32 << 10})
	if st.MaxResident <= 0 {
		t.Fatal("MaxResident not tracked")
	}
	if st.MaxResident > (len(R)+len(S))/5 {
		t.Fatalf("sweep status held %d of %d rectangles — not sweeping", st.MaxResident, len(R)+len(S))
	}
}

func TestSortPhaseBlocksFirstResult(t *testing.T) {
	// §1 / [Gra 93]: no result before both inputs are completely sorted.
	R := datagen.LARR(6, 2000).KPEs
	S := datagen.LAST(7, 2000).KPEs
	_, st := run(t, R, S, Config{Memory: 8 << 10})
	sortIO := st.PhaseIO[PhaseSort].CostUnits
	if sortIO <= 0 {
		t.Fatal("sort phase must do I/O")
	}
	if st.FirstResultIO < sortIO {
		t.Fatalf("first result at %.0f units, before sorting finished at %.0f",
			st.FirstResultIO, sortIO)
	}
}

func TestExternalSortAtTinyMemory(t *testing.T) {
	R := datagen.LARR(8, 3000).KPEs
	_, st := run(t, R, R, Config{Memory: 4 << 10})
	if st.SortRuns < 4 {
		t.Fatalf("tiny memory must form several runs, got %d", st.SortRuns)
	}
	if st.MergePasses == 0 {
		t.Fatal("tiny memory must merge externally")
	}
}

func TestEmptyInputs(t *testing.T) {
	R := datagen.Uniform(9, 100, 0.05)
	for _, pair := range [][2][]geom.KPE{{nil, R}, {R, nil}, {nil, nil}} {
		got, _ := run(t, pair[0], pair[1], Config{Memory: 8 << 10})
		if len(got) != 0 {
			t.Fatal("empty input must give empty join")
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	if PhaseSort.String() != "sort" || PhaseSweep.String() != "sweep" {
		t.Fatal("phase names changed")
	}
	if Phase(9).String() == "" {
		t.Fatal("unknown phase must format")
	}
}

// TestParallelSortChangesNothingButTime: the two input sorts run their
// chunks and merge groups on Config.Parallel workers; the emission
// sequence, the run structure and every I/O unit stay those of the serial
// join. xlKey must key a record by the XL field it encodes.
func TestParallelSortChangesNothingButTime(t *testing.T) {
	R := datagen.LARR(5, 3000).KPEs
	S := datagen.LAST(6, 3000).KPEs
	serial, sst := run(t, R, S, Config{Memory: 8 << 10})
	if sst.MergePasses == 0 {
		t.Fatal("the sorts must be external for this test to mean anything")
	}
	for _, workers := range []int{2, 4} {
		got, st := run(t, R, S, Config{Memory: 8 << 10, Parallel: workers})
		if len(got) != len(serial) {
			t.Fatalf("parallel=%d: %d results, serial %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("parallel=%d: result %d is %v, serial %v", workers, i, got[i], serial[i])
			}
		}
		if st.SortRuns != sst.SortRuns || st.MergePasses != sst.MergePasses || st.TotalIO() != sst.TotalIO() {
			t.Fatalf("parallel=%d: runs/passes/IO %d/%d/%+v, serial %d/%d/%+v", workers,
				st.SortRuns, st.MergePasses, st.TotalIO(), sst.SortRuns, sst.MergePasses, sst.TotalIO())
		}
	}

	var buf [geom.KPESize]byte
	for _, x := range []float64{math.Inf(-1), -2.5, math.Copysign(0, -1), 0, 0.5, math.Inf(1)} {
		geom.EncodeKPE(buf[:], geom.KPE{ID: ^uint64(0), Rect: geom.Rect{XL: x, YL: -1, XH: 9, YH: 7}})
		if k := xlKey(buf[:]); k != geom.OrderedKey(x) {
			t.Fatalf("xlKey of XL %g = %#x, geom.OrderedKey %#x", x, k, geom.OrderedKey(x))
		}
	}
}

// TestSweepAllocationsDoNotGrowPerRecord: the sweep reports through one
// emit made per join, and the list status grows by doubling, so a list
// join of twice the records allocates at most a small constant more.
func TestSweepAllocationsDoNotGrowPerRecord(t *testing.T) {
	allocs := func(n int) float64 {
		R := datagen.Uniform(21, n, 0.01)
		S := datagen.Uniform(22, n, 0.01)
		return testing.AllocsPerRun(3, func() {
			if _, err := Join(R, S, Config{Disk: newDisk(), Memory: 1 << 20, Algorithm: sweep.ListKind}, func(geom.Pair) {}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(2000), allocs(4000); large > small+32 {
		t.Fatalf("a join of 2×%d records allocates %v times, of 2×%d %v", 2000, small, 4000, large)
	}
}
