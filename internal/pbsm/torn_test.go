package pbsm

import (
	"errors"
	"testing"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/recfile"
)

// tornKPEFile writes ks as a framed KPE stream and copies only its first
// n bytes into a fresh file, simulating a write torn after n bytes.
func tornKPEFile(t *testing.T, d *diskio.Disk, ks []geom.KPE, n int) *diskio.File {
	t.Helper()
	whole := d.Create("")
	w := recfile.NewKPEWriter(whole, 2)
	for _, k := range ks {
		if err := w.Write(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if n > whole.Len() {
		n = whole.Len()
	}
	torn := d.Create("")
	tw := torn.NewWriter(2)
	if _, err := tw.Write(whole.Bytes()[:n]); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return torn
}

// TestTornEmptyLookingPartitionNotSkipped: a partition file torn below
// one frame header reports zero KPEs, so processPair used to skip the
// pair as empty and silently lose its results. The tear must instead be
// detected — healable at the top level, plain corruption in a sub-pair.
func TestTornEmptyLookingPartitionNotSkipped(t *testing.T) {
	d := newDisk()
	j := newJoiner(Config{Disk: d, Memory: 1 << 20})

	fr := d.Create("")
	w := recfile.NewKPEWriter(fr, 2)
	if err := w.Write(geom.KPE{ID: 1, Rect: geom.NewRect(0, 0, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	fs := tornKPEFile(t, d, []geom.KPE{{ID: 2, Rect: geom.NewRect(0, 0, 1, 1)}}, 11)
	if n := recfile.NumKPEs(fs); n != 0 {
		t.Fatalf("NumKPEs of torn file = %d, want 0 (precondition)", n)
	}

	err := j.processPair(j.ex.Slot(), func([]geom.Pair) {}, fr, fs, wholeSpace{}, wholeSpace{}, 0)
	if err == nil {
		t.Fatal("torn-below-header partition file was skipped as empty")
	}
	if !recfile.IsCorrupt(err) {
		t.Fatalf("want corruption, got %v", err)
	}
	var he *healableError
	if !errors.As(err, &he) {
		t.Fatalf("top-level tear must be healable, got %v", err)
	}

	err = j.processPair(j.ex.Slot(), func([]geom.Pair) {}, fr, fs, wholeSpace{}, wholeSpace{}, 1)
	if err == nil || !recfile.IsCorrupt(err) {
		t.Fatalf("sub-pair tear must surface as corruption, got %v", err)
	}
	if errors.As(err, &he) {
		t.Fatal("sub-pair tear must not be marked healable")
	}
}
