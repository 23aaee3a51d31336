package pbsm

import (
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/jointest"
	"spatialjoin/internal/trace"
)

// TestParallelWithRepartitioning is the unit driver's invariance test on
// an input that repartitions inside its units: for every duplicate
// method the emission SEQUENCE, every Stats counter and the total I/O
// are the same at 1, 2 and 4 workers. At one worker the driver runs
// inline with no outer region timer, so repartitioning keeps its own
// phase charge (Figures 3 and 6 read that split) and no worker span
// appears.
func TestParallelWithRepartitioning(t *testing.T) {
	R := datagen.Uniform(3, 1500, 0.002)
	for i := range R {
		R[i].Rect = geom.NewRect(R[i].Rect.XL*0.01, R[i].Rect.YL*0.01,
			R[i].Rect.XH*0.01, R[i].Rect.YH*0.01) // squeeze into a corner
	}
	// counters strips what legitimately depends on the worker count: the
	// per-phase split, wall time, and the I/O clock at the first result.
	counters := func(st Stats) Stats {
		st.PhaseIO, st.PhaseCPU = [numPhases]diskio.Stats{}, [numPhases]time.Duration{}
		st.FirstResultCPU, st.FirstResultIO = 0, 0
		return st
	}
	for _, dup := range []DupMethod{DupRPM, DupSort} {
		rec := trace.New()
		root := rec.Begin("join")
		seq, seqSt := run(t, R, R, Config{Memory: 8 << 10, Dup: dup, Trace: root})
		root.End()
		if seqSt.Repartitions == 0 || seqSt.PhaseIO[PhaseRepartition].CostUnits <= 0 {
			t.Fatalf("%v: serial run must repartition and charge it to its own phase (%d splits, %g units)",
				dup, seqSt.Repartitions, seqSt.PhaseIO[PhaseRepartition].CostUnits)
		}
		for _, sp := range rec.Spans() {
			if sp.Name == "pair-worker" {
				t.Fatalf("%v: worker span in a one-worker run", dup)
			}
		}
		for _, workers := range []int{2, 4} {
			par, parSt := run(t, R, R, Config{Memory: 8 << 10, Dup: dup, Parallel: workers})
			if len(par) != len(seq) {
				t.Fatalf("%v/%d workers: %d pairs, serial %d", dup, workers, len(par), len(seq))
			}
			for i := range par {
				if par[i] != seq[i] {
					t.Fatalf("%v/%d workers: emission diverges at %d: %v vs %v", dup, workers, i, par[i], seq[i])
				}
			}
			if counters(parSt) != counters(seqSt) {
				t.Fatalf("%v/%d workers: counters changed:\n%+v\nserial:\n%+v", dup, workers, counters(parSt), counters(seqSt))
			}
			if parSt.TotalIO() != seqSt.TotalIO() {
				t.Fatalf("%v/%d workers: total I/O changed: %+v vs %+v", dup, workers, parSt.TotalIO(), seqSt.TotalIO())
			}
		}
	}
}

func TestParallelIOEqualsSequentialIO(t *testing.T) {
	// Parallelism must not change what is charged to the disk.
	R := datagen.LARR(4, 2000).KPEs
	S := datagen.LAST(5, 2000).KPEs
	_, seq := run(t, R, S, Config{Memory: 16 << 10})
	_, par := run(t, R, S, Config{Memory: 16 << 10, Parallel: 4})
	if seq.TotalIO().CostUnits != par.TotalIO().CostUnits {
		t.Fatalf("I/O changed under parallelism: %g vs %g",
			seq.TotalIO().CostUnits, par.TotalIO().CostUnits)
	}
	if seq.RawResults != par.RawResults {
		t.Fatalf("raw results changed: %d vs %d", seq.RawResults, par.RawResults)
	}
}

func TestParallelSinglePartitionFallsBack(t *testing.T) {
	R := datagen.Uniform(6, 100, 0.05)
	got, st := run(t, R, R, Config{Memory: 64 << 20, Parallel: 8})
	jointest.AssertEqual(t, got, jointest.Naive(R, R))
	if st.P != 1 {
		t.Fatalf("P = %d", st.P)
	}
}
