package s3j

import (
	"slices"
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/extsort"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/recfile"
)

// TestTornLevelFilesNeverDropPairs: one R and one identical S rectangle
// make a run of one record each; under a torn-write sweep, a tear can
// shrink a run below one frame header, where a length-derived record
// count reports zero and a scan that trusted it would drop the run
// silently — losing the only result pair. The scan reads a run as the
// record range its writer counted, so every join must either produce the
// exact result or fail with a corruption error.
func TestTornLevelFilesNeverDropPairs(t *testing.T) {
	rect := geom.NewRect(0.30, 0.30, 0.32, 0.32) // inside one cell at every level
	R := []geom.KPE{{ID: 1, Rect: rect}}
	S := []geom.KPE{{ID: 2, Rect: rect}}

	var torn, failed int64
	for seed := int64(1); seed <= 60; seed++ {
		d := diskio.NewDisk(256, 5, time.Microsecond)
		fp := diskio.NewFaultPolicy(diskio.FaultConfig{Seed: seed, TornWriteRate: 0.3})
		d.SetFaultPolicy(fp)
		var got []geom.Pair
		_, err := Join(R, S, Config{Disk: d, Memory: 1 << 20, Levels: 2}, func(p geom.Pair) { got = append(got, p) })
		torn += fp.Stats().TornWrites
		if err != nil {
			if !recfile.IsCorrupt(err) {
				t.Fatalf("seed %d: want a corruption error, got %v", seed, err)
			}
			failed++
			continue
		}
		if len(got) != 1 {
			t.Fatalf("seed %d: silent wrong answer: %d pairs, want 1 (%d torn writes)",
				seed, len(got), fp.Stats().TornWrites)
		}
	}
	if torn == 0 || failed == 0 {
		t.Fatalf("sweep vacuous: torn=%d, cleanFailures=%d", torn, failed)
	}
}

// TestTornRunIsCorruptNotShorter tears one run of a partitioned relation
// at every interesting place — below one frame header, inside the first
// frame, below the last frame, one byte short — and scans it as the range
// the partitioner counted: the range reader must report the tear as a
// recfile.CorruptError, never hand the scan a silently shorter cell.
func TestTornRunIsCorruptNotShorter(t *testing.T) {
	R := datagen.Uniform(41, 3000, 0.01)
	d := diskio.NewDisk(256, 5, time.Microsecond)
	cfg := Config{Disk: d, Memory: 32 << 10, Mode: ModeReplicate}
	j := newJoiner(cfg)
	j.emit = func(geom.Pair) {}
	defer j.reg.Sweep()
	runs, _, err := j.partitionInput(R, cfg.levels(), j.sortConfig())
	if err != nil || len(runs) < 3 {
		t.Fatalf("partitionInput = (%d runs, %v), want several", len(runs), err)
	}
	if err := j.scan([2][]extsort.Run{runs, runs}); err != nil {
		t.Fatalf("scan of the intact runs: %v", err)
	}
	whole := runs[1].File.Bytes()
	for _, n := range []int{0, 5, 12, 12 + levRecSize + 3, len(whole) / 2, len(whole) - 30, len(whole) - 1} {
		torn := j.reg.Create()
		w := torn.NewWriter(4)
		if _, err := w.Write(whole[:n]); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		tornRuns := slices.Clone(runs)
		tornRuns[1].File = torn
		if err := j.scan([2][]extsort.Run{tornRuns, runs}); !recfile.IsCorrupt(err) {
			t.Fatalf("run torn to %d of %d bytes: scan returned %v, want a corruption error", n, len(whole), err)
		}
	}
}
