package recfile

import (
	"testing"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
)

// writeKPEs writes n KPEs through the framed writer, failing the test on
// any error.
func writeKPEs(t *testing.T, f *diskio.File, n int) []geom.KPE {
	t.Helper()
	w := NewKPEWriter(f, 2)
	ks := make([]geom.KPE, 0, n)
	for i := 0; i < n; i++ {
		k := geom.KPE{ID: uint64(i), Rect: geom.NewRect(0, 0, 1, 1)}
		if err := w.Write(k); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		ks = append(ks, k)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return ks
}

// TestTransientFaultsRetriedTransparently: under a transient-only fault
// schedule the framed layer retries and the stream round-trips exactly,
// with the retries visible on the disk stats.
func TestTransientFaultsRetriedTransparently(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Millisecond)
	d.SetFaultPolicy(diskio.NewFaultPolicy(diskio.FaultConfig{
		Seed:               21,
		TransientReadRate:  0.3,
		TransientWriteRate: 0.3,
	}))
	f := d.Create("k")
	want := writeKPEs(t, f, 2000)
	got, err := ReadAllKPEs(nil, f, 2)
	if err != nil {
		t.Fatalf("transient faults must be retried away: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d corrupted by retry", i)
		}
	}
	if st := d.Stats(); st.Retries == 0 {
		t.Fatal("retries must be counted on the disk stats")
	}
	if fs := d.FaultPolicy().Stats(); fs.TransientReads == 0 || fs.TransientWrites == 0 {
		t.Fatalf("schedule vacuous: %+v", fs)
	}
}

// TestTornWriteDetected: a torn write is silent at the diskio layer but
// must surface as a CorruptError when the stream is read.
func TestTornWriteDetected(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d := diskio.NewDisk(256, 5, time.Millisecond)
		fp := diskio.NewFaultPolicy(diskio.FaultConfig{Seed: seed, TornWriteRate: 0.5})
		d.SetFaultPolicy(fp)
		f := d.Create("k")
		w := NewKPEWriter(f, 1)
		for i := 0; i < 800; i++ {
			if err := w.Write(geom.KPE{ID: uint64(i)}); err != nil {
				t.Fatalf("seed %d: torn writes must be silent on write: %v", seed, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fp.Stats().TornWrites == 0 {
			continue // schedule tore nothing this seed
		}
		fp.Disable()
		_, err := ReadAllKPEs(nil, f, 2)
		if err == nil {
			t.Fatalf("seed %d: %d torn writes went undetected", seed, fp.Stats().TornWrites)
		}
		if !IsCorrupt(err) {
			t.Fatalf("seed %d: want CorruptError, got %v", seed, err)
		}
	}
}

// TestBitFlipDetected: a single flipped bit anywhere in the stream must
// fail the frame checksum.
func TestBitFlipDetected(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d := diskio.NewDisk(256, 5, time.Millisecond)
		fp := diskio.NewFaultPolicy(diskio.FaultConfig{Seed: seed, BitFlipRate: 0.5})
		d.SetFaultPolicy(fp)
		f := d.Create("k")
		writeKPEs(t, f, 800)
		if fp.Stats().BitFlips == 0 {
			continue
		}
		fp.Disable()
		_, err := ReadAllKPEs(nil, f, 2)
		if err == nil {
			t.Fatalf("seed %d: %d bit flips went undetected", seed, fp.Stats().BitFlips)
		}
		if !IsCorrupt(err) {
			t.Fatalf("seed %d: want CorruptError, got %v", seed, err)
		}
	}
}

// TestCorruptErrorCarriesFile: the error names the file so joinerr can
// attribute it.
func TestCorruptErrorCarriesFile(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Millisecond)
	fp := diskio.NewFaultPolicy(diskio.FaultConfig{Seed: 2, BitFlipRate: 1.0})
	d.SetFaultPolicy(fp)
	f := d.Create("partition-7")
	writeKPEs(t, f, 300)
	fp.Disable()
	_, err := ReadAllKPEs(nil, f, 2)
	if err == nil {
		t.Fatal("corruption undetected")
	}
	ce, ok := err.(*CorruptError)
	if !ok {
		t.Fatalf("want *CorruptError, got %T", err)
	}
	if ce.FileName() != "partition-7" {
		t.Fatalf("FileName = %q", ce.FileName())
	}
}

// TestWriteAfterFlushRejected pins the writer's lifecycle contract.
func TestWriteAfterFlushRejected(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Millisecond)
	f := d.Create("k")
	w := NewKPEWriter(f, 2)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(geom.KPE{}); err == nil {
		t.Fatal("write after Flush must error")
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush must be idempotent: %v", err)
	}
}

// TestFlushedEmptyStreamReadsCleanly: a finalized empty stream is an
// end-of-stream frame only, and both it and a never-written file read as
// zero records without error.
func TestFlushedEmptyStreamReadsCleanly(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Millisecond)
	flushed := d.Create("flushed")
	w := NewKPEWriter(flushed, 2)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*diskio.File{flushed, d.Create("never-written")} {
		if n := NumKPEs(f); n != 0 {
			t.Fatalf("%s: NumKPEs = %d", f.Name(), n)
		}
		got, err := ReadAllKPEs(nil, f, 2)
		if err != nil || len(got) != 0 {
			t.Fatalf("%s: read = (%d records, %v)", f.Name(), len(got), err)
		}
	}
}

// tornPrefix copies the first n bytes of src into a fresh file,
// simulating a write torn after exactly n bytes.
func tornPrefix(t *testing.T, d *diskio.Disk, src *diskio.File, n int) *diskio.File {
	t.Helper()
	f := d.Create(src.Name() + "-torn")
	w := f.NewWriter(4)
	if _, err := w.Write(src.Bytes()[:n]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestVerifyEmptyCatchesSubHeaderTear: a stream torn below one frame
// header (or inside the first payload) reports zero records, so callers
// would skip it as empty — VerifyEmpty must expose the tear as a
// CorruptError instead of letting the records vanish silently.
func TestVerifyEmptyCatchesSubHeaderTear(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Millisecond)
	whole := d.Create("whole")
	writeKPEs(t, whole, 1)

	// Tears below the header and tears inside the first record's payload
	// both leave a length-derived count of zero.
	for _, n := range []int{1, frameHeaderSize - 1, frameHeaderSize, frameHeaderSize + 1} {
		torn := tornPrefix(t, d, whole, n)
		if c := NumKPEs(torn); c != 0 {
			t.Fatalf("tear to %d bytes: NumKPEs = %d, want 0 (precondition)", n, c)
		}
		err := VerifyEmptyKPEs(torn, 2)
		if err == nil {
			t.Fatalf("tear to %d bytes passed empty-stream verification", n)
		}
		if !IsCorrupt(err) {
			t.Fatalf("tear to %d bytes: want CorruptError, got %v", n, err)
		}
	}

	// Intact streams pass: finalized empty, never written, and non-empty
	// (vacuously, without I/O).
	empty := d.Create("empty")
	if err := NewKPEWriter(empty, 2).Flush(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*diskio.File{empty, d.Create("never-written"), whole} {
		if err := VerifyEmptyKPEs(f, 2); err != nil {
			t.Fatalf("%s: intact stream failed verification: %v", f.Name(), err)
		}
	}
}

// TestRangeReaderTornAtFrameBoundary: a file torn at exactly a frame
// boundary must not read as a clean short range — the merge phase of the
// external sort would otherwise write a checksum-valid but incomplete
// run and drop records without any error.
func TestRangeReaderTornAtFrameBoundary(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Millisecond)
	const rec, n = 8, 600
	if n <= recsPerFrame(rec) {
		t.Fatalf("need at least two frames; %d records fit in one", n)
	}
	whole := d.Create("whole")
	w := NewRecWriter(whole, rec, 2)
	buf := make([]byte, rec)
	for i := 0; i < n; i++ {
		buf[0] = byte(i)
		if err := w.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	torn := tornPrefix(t, d, whole, frameBytes(rec))

	r := NewRecRangeReader(torn, rec, 2, 0, n)
	served := 0
	var err error
	for {
		var ok bool
		ok, err = r.Next(buf)
		if !ok || err != nil {
			break
		}
		served++
	}
	if err == nil {
		t.Fatalf("range over torn file ended cleanly after %d of %d records", served, n)
	}
	if !IsCorrupt(err) {
		t.Fatalf("want CorruptError, got %v", err)
	}
}

// FuzzFrameReader feeds arbitrary bytes to the frame reader: whatever
// the input, Next must terminate with records or an error — never panic
// and never loop forever.
func FuzzFrameReader(f *testing.F) {
	// Seed with a valid two-frame stream, a truncation of it, and junk.
	d := diskio.NewDisk(256, 5, time.Millisecond)
	valid := d.Create("v")
	w := NewRecWriter(valid, 8, 2)
	for i := 0; i < 600; i++ {
		w.Write([]byte{byte(i), 0, 0, 0, 0, 0, 0, 0})
	}
	w.Flush()
	f.Add(append([]byte(nil), valid.Bytes()...))
	f.Add(append([]byte(nil), valid.Bytes()[:len(valid.Bytes())/2]...))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 2, 3, 4, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := diskio.NewDisk(256, 5, time.Millisecond)
		file := d.Create("fz")
		fw := file.NewWriter(4)
		fw.Write(data)
		fw.Flush()
		r := NewRecReader(file, 8, 2)
		buf := make([]byte, 8)
		// A reader can yield at most one record per payload slot; anything
		// beyond that bounds a runaway loop.
		limit := len(data)/8 + 2
		for n := 0; ; n++ {
			ok, err := r.Next(buf)
			if err != nil || !ok {
				return
			}
			if n > limit {
				t.Fatalf("reader yielded more records than the file can hold (%d)", n)
			}
		}
	})
}
