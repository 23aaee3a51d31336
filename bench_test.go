// Package spatialjoin_test hosts the top-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation
// (Dittrich & Seeger, ICDE 2000). Each benchmark runs the corresponding
// experiment of internal/bench at a reduced dataset scale (the full-scale
// runs are produced by cmd/sjbench and recorded in EXPERIMENTS.md) and
// reports the experiment's key quantity as a custom metric alongside the
// usual ns/op, so regressions in either CPU work or simulated I/O show up
// in benchmark diffs.
package spatialjoin_test

import (
	"testing"

	"spatialjoin/internal/bench"
	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/trace"
)

// benchSuite returns the shared, cached experiment datasets at benchmark
// scale: ~13k-rectangle LA layers and a ~57k-rectangle CAL_ST.
func benchSuite() *bench.Suite {
	return bench.NewSuite(0.10, 0.03, 1)
}

// Table 1 — dataset generation and coverage measurement.
func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite() // regenerates: this benchmark measures datagen
		rows, _ := bench.RunTable1(s)
		if len(rows) != 9 {
			b.Fatal("unexpected row count")
		}
	}
}

// Table 2 — the five experiment joins J1–J5.
func BenchmarkTable2Joins(b *testing.B) {
	s := benchSuite()
	s.LARR() // warm the dataset cache outside the timer
	s.CALST()
	b.ResetTimer()
	var results int64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunTable2(s)
		results = rows[len(rows)-1].Results
	}
	b.ReportMetric(float64(results), "J5-results")
}

// Table 3 — per-phase I/O passes of PBSM and S³J.
func BenchmarkTable3IOPasses(b *testing.B) {
	s := benchSuite()
	s.LARR()
	s.LAST()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunTable3(s)
		if len(rows) != 6 {
			b.Fatal("unexpected row count")
		}
	}
}

// Figure 3 — PBSM duplicate removal: sort phase vs Reference Point Method.
func BenchmarkFig3PBSMDuplicates(b *testing.B) {
	s := benchSuite()
	s.ScaledLA(4)
	b.ResetTimer()
	var dupIO float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig3(s)
		dupIO = rows[len(rows)-1].IODupUnits
	}
	b.ReportMetric(dupIO, "J4-dup-IO-units")
}

// Figure 4 — internal algorithms in main memory, list vs trie.
func BenchmarkFig4InternalAlgorithms(b *testing.B) {
	s := benchSuite()
	s.ScaledLA(4)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig4(s, nil)
		last := rows[len(rows)-1]
		ratio = float64(last.ListTests) / float64(last.TrieTests)
	}
	b.ReportMetric(ratio, "J4-list/trie-tests")
}

// Figure 5 — PBSM list vs trie over the memory sweep.
func BenchmarkFig5PBSMMemory(b *testing.B) {
	s := benchSuite()
	s.CALST()
	fracs := []float64{0.066, 0.5, 1.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig5(s, fracs)
		if len(rows) != len(fracs) {
			b.Fatal("unexpected row count")
		}
	}
}

// Figure 6 — repartitioning share of PBSM runtime.
func BenchmarkFig6Repartitioning(b *testing.B) {
	s := benchSuite()
	s.CALST()
	fracs := []float64{0.033, 0.25}
	b.ResetTimer()
	var share float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig6(s, fracs)
		share = rows[0].RepartFrac
	}
	b.ReportMetric(100*share, "repart-%-at-small-mem")
}

// Figure 11 — S³J original vs replicated.
func BenchmarkFig11S3JReplication(b *testing.B) {
	s := benchSuite()
	s.CALST()
	fracs := []float64{0.13}
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig11(s, fracs)
		speedup = float64(rows[0].OrigTests) / float64(rows[0].ReplTests)
	}
	b.ReportMetric(speedup, "orig/repl-tests")
}

// Figure 12 — S³J internal algorithms (nested loops vs list sweep).
func BenchmarkFig12S3JInternal(b *testing.B) {
	s := benchSuite()
	s.CALST()
	fracs := []float64{0.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig12(s, fracs, false)
		if len(rows) != len(fracs) {
			b.Fatal("unexpected row count")
		}
	}
}

// Figure 13 — the three methods over the coverage sweep p = 1..4.
func BenchmarkFig13CoverageSweep(b *testing.B) {
	s := benchSuite()
	for p := 1; p <= 4; p++ {
		s.ScaledLA(p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig13(s, 4)
		if len(rows) != 4 {
			b.Fatal("unexpected row count")
		}
	}
}

// Methods comparison — all three index-availability classes on J1
// (beyond the paper; see DESIGN.md §6).
func BenchmarkMethodsComparison(b *testing.B) {
	s := benchSuite()
	s.LARR()
	s.LAST()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunMethods(s, bench.J1)
		if len(rows) != 8 {
			b.Fatal("unexpected row count")
		}
	}
}

// Observability overhead — the same PBSM join with no recorder attached
// (the production default: every instrumentation site reduces to a nil
// pointer test) versus a full recorder capturing spans, counters and
// histograms. The delta between the two is an upper bound on what the
// nil path can possibly cost over uninstrumented code; the enforced
// budget test is TestOverheadBudget/trace.
func BenchmarkJoinPBSMNilRecorder(b *testing.B) {
	R := datagen.Uniform(11, 4000, 0.004)
	S := datagen.Uniform(12, 4000, 0.004)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := core.Collect(R, S, core.Config{Method: core.PBSM, Memory: 64 << 10})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinPBSMActiveRecorder(b *testing.B) {
	R := datagen.Uniform(11, 4000, 0.004)
	S := datagen.Uniform(12, 4000, 0.004)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := trace.New()
		_, _, err := core.Collect(R, S, core.Config{Method: core.PBSM, Memory: 64 << 10, Trace: rec})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 14 — the three methods over the memory sweep.
func BenchmarkFig14MemorySweep(b *testing.B) {
	s := benchSuite()
	s.CALST()
	fracs := []float64{0.066, 0.5, 1.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := bench.RunFig14(s, fracs)
		if len(rows) != len(fracs) {
			b.Fatal("unexpected row count")
		}
	}
}
