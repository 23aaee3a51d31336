package recfile

import (
	"math/rand"
	"testing"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
)

func newDisk() *diskio.Disk { return diskio.NewDisk(256, 5, time.Millisecond) }

func randKPE(rng *rand.Rand, id uint64) geom.KPE {
	return geom.KPE{
		ID:   id,
		Rect: geom.NewRect(rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()),
	}
}

func TestKPEWriterReaderRoundTrip(t *testing.T) {
	d := newDisk()
	f := d.Create("k")
	rng := rand.New(rand.NewSource(1))
	w := NewKPEWriter(f, 2)
	var want []geom.KPE
	for i := 0; i < 500; i++ {
		k := randKPE(rng, uint64(i))
		w.Write(k)
		want = append(want, k)
	}
	w.Flush()
	if NumKPEs(f) != 500 {
		t.Fatalf("NumKPEs = %d", NumKPEs(f))
	}

	r := NewKPEReader(f, 3)
	for i, k := range want {
		got, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("short stream at %d (ok=%v err=%v)", i, ok, err)
		}
		if got != k {
			t.Fatalf("record %d: got %v want %v", i, got, k)
		}
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("stream must end cleanly (ok=%v err=%v)", ok, err)
	}
}

func TestReadAllKPEs(t *testing.T) {
	d := newDisk()
	f := d.Create("k")
	rng := rand.New(rand.NewSource(2))
	w := NewKPEWriter(f, 2)
	var want []geom.KPE
	for i := 0; i < 123; i++ {
		k := randKPE(rng, uint64(i))
		w.Write(k)
		want = append(want, k)
	}
	w.Flush()
	got, err := ReadAllKPEs(nil, f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if got, err := ReadAllKPEs(nil, d.Create("empty"), 4); err != nil || len(got) != 0 {
		t.Fatalf("empty file must yield no records (err=%v)", err)
	}
	// A dst with room is filled from dst[:0] in place; one that is too
	// small is replaced, never appended past.
	big := make([]geom.KPE, 7, 200)
	got, err = ReadAllKPEs(big, f, 4)
	if err != nil || len(got) != len(want) || &got[0] != &big[:1][0] || got[122] != want[122] {
		t.Fatalf("a dst with capacity must be reused from its start (len=%d, err=%v)", len(got), err)
	}
	small := make([]geom.KPE, 3, 5)
	got, err = ReadAllKPEs(small, f, 4)
	if err != nil || len(got) != len(want) || got[0] != want[0] || got[122] != want[122] {
		t.Fatalf("a dst without capacity must be outgrown (len=%d, err=%v)", len(got), err)
	}
}

func TestKPERangeReader(t *testing.T) {
	d := newDisk()
	f := d.Create("k")
	w := NewKPEWriter(f, 2)
	for i := 0; i < 100; i++ {
		w.Write(geom.KPE{ID: uint64(i)})
	}
	w.Flush()
	r := NewRecRangeReader(f, geom.KPESize, 2, 10, 20)
	for want := uint64(10); want < 20; want++ {
		p, ok, err := r.NextRef()
		if err != nil || !ok || geom.DecodeKPE(p).ID != want {
			t.Fatalf("range read got (%v,%v,%v), want id %d", p, ok, err, want)
		}
	}
	if _, ok, err := r.NextRef(); ok || err != nil {
		t.Fatalf("range must end at record 20 (ok=%v err=%v)", ok, err)
	}
}

// TestRangeReaderChargesOnlyItsFrames: a range reader's requests end with
// the frame that holds its last record, so a window wider than the range
// charges no page of the records after it.
func TestRangeReaderChargesOnlyItsFrames(t *testing.T) {
	d := newDisk()
	f := d.Create("k")
	w := NewKPEWriter(f, 2)
	for i := 0; i < 2000; i++ {
		w.Write(geom.KPE{ID: uint64(i)})
	}
	w.Flush()
	per, fb := int64(recsPerFrame(geom.KPESize)), int64(frameBytes(geom.KPESize))
	for _, rg := range [][2]int64{{250, 750}, {0, 1}, {per, 2 * per}, {1999, 2000}} {
		lo, hi := rg[0], rg[1]
		before := d.Stats()
		r := NewRecRangeReader(f, geom.KPESize, 64, lo, hi)
		for want := uint64(lo); want < uint64(hi); want++ {
			if p, ok, err := r.NextRef(); err != nil || !ok || geom.DecodeKPE(p).ID != want {
				t.Fatalf("range [%d, %d): got (%v, %v, %v), want id %d", lo, hi, p, ok, err, want)
			}
		}
		span := min((hi+per-1)/per*fb, int64(f.Len())) - lo/per*fb
		if got, want := d.Stats().Sub(before).PagesRead, (span+255)/256; got != want {
			t.Errorf("range [%d, %d): %d pages read, want the %d of its frames", lo, hi, got, want)
		}
	}
}

func TestPairWriterReaderRoundTrip(t *testing.T) {
	d := newDisk()
	f := d.Create("p")
	w := NewPairWriter(f, 2)
	var want []geom.Pair
	for i := 0; i < 300; i++ {
		p := geom.Pair{R: uint64(i), S: uint64(i * 7)}
		w.Write(p)
		want = append(want, p)
	}
	w.Flush()
	if n := NumRecs(f, geom.PairSize); n != 300 {
		t.Fatalf("NumRecs = %d", n)
	}
	r := NewRecReader(f, geom.PairSize, 2)
	for i, p := range want {
		got, ok, err := r.NextRef()
		if err != nil || !ok || geom.DecodePair(got) != p {
			t.Fatalf("pair %d: got (%v,%v,%v)", i, got, ok, err)
		}
	}
	if _, ok, err := r.NextRef(); ok || err != nil {
		t.Fatalf("stream must end cleanly (ok=%v err=%v)", ok, err)
	}
}

func TestWritesAreCharged(t *testing.T) {
	d := newDisk()
	f := d.Create("k")
	w := NewKPEWriter(f, 1)
	for i := 0; i < 100; i++ { // 4000 bytes, 256-byte pages, 1-page buffer
		w.Write(geom.KPE{ID: uint64(i)})
	}
	w.Flush()
	st := d.Stats()
	if st.WriteRequests < 15 {
		t.Fatalf("expected many buffered flushes, got %d requests", st.WriteRequests)
	}
	if st.PagesWritten < 15 {
		t.Fatalf("PagesWritten = %d", st.PagesWritten)
	}
}
