package extsort

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/recfile"
)

const recSize = 8

func u64Less(a, b []byte) bool {
	return binary.LittleEndian.Uint64(a) < binary.LittleEndian.Uint64(b)
}

func writeU64s(d *diskio.Disk, vals []uint64) *diskio.File {
	recs := make([]byte, recSize*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(recs[i*recSize:], v)
	}
	return writeRecs(d, recs, recSize)
}

func readU64s(f *diskio.File) []uint64 {
	recs := readRecs(f, recSize)
	out := make([]uint64, len(recs)/recSize)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(recs[i*recSize:])
	}
	return out
}

// writeRecs stores recs, records of rs bytes each, in a new file.
func writeRecs(d *diskio.Disk, recs []byte, rs int) *diskio.File {
	f := d.Create("in")
	w := recfile.NewRecWriter(f, rs, 4)
	for k := 0; k < len(recs); k += rs {
		if err := w.Write(recs[k : k+rs]); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return f
}

// readRecs returns the records of f back to back.
func readRecs(f *diskio.File, rs int) []byte {
	r := recfile.NewRecReader(f, rs, 4)
	var out []byte
	buf := make([]byte, rs)
	for {
		ok, err := r.Next(buf)
		if err != nil {
			panic(err)
		}
		if !ok {
			return out
		}
		out = append(out, buf...)
	}
}

func sortThem(t *testing.T, vals []uint64, memory int64) ([]uint64, Stats) {
	t.Helper()
	d := diskio.NewDisk(64, 5, time.Millisecond)
	in := writeU64s(d, vals)
	out, st, err := Sort(in, Config{Disk: d, RecordSize: recSize, Memory: memory, Less: u64Less})
	if err != nil {
		t.Fatal(err)
	}
	return readU64s(out), st
}

func TestSortInMemorySizedInput(t *testing.T) {
	vals := []uint64{5, 3, 9, 1, 7, 3, 0}
	got, st := sortThem(t, vals, 1<<20)
	want := append([]uint64(nil), vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pos %d: got %d want %d", i, got[i], want[i])
		}
	}
	if st.Runs != 1 || st.MergePass != 0 {
		t.Fatalf("expected single run, got %+v", st)
	}
}

func TestSortExternalMultiRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 5000)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	got, st := sortThem(t, vals, 1024) // 128 records per run -> ~40 runs
	if st.Runs < 2 {
		t.Fatalf("expected multiple runs, got %d", st.Runs)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("output not sorted")
	}
	if len(got) != len(vals) {
		t.Fatalf("record count changed: %d != %d", len(got), len(vals))
	}
}

func TestSortForcesMultipleMergePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]uint64, 4000)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	d := diskio.NewDisk(64, 5, time.Millisecond)
	in := writeU64s(d, vals)
	// 512-byte memory, 1-page (64-byte) buffers: fan-in = 512/64 - 1 = 7,
	// 64 records per run -> 63 runs -> at least two merge passes.
	out, st, err := Sort(in, Config{Disk: d, RecordSize: recSize, Memory: 512, BufPages: 1, Less: u64Less})
	if err != nil {
		t.Fatal(err)
	}
	if st.MergePass < 2 {
		t.Fatalf("expected ≥2 merge passes, got %d (runs=%d)", st.MergePass, st.Runs)
	}
	got := readU64s(out)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("output not sorted after multi-pass merge")
	}
	if len(got) != len(vals) {
		t.Fatalf("lost records: %d != %d", len(got), len(vals))
	}
}

func TestSortEmptyInput(t *testing.T) {
	got, st := sortThem(t, nil, 1024)
	if len(got) != 0 || st.Records != 0 || st.Runs != 0 {
		t.Fatalf("empty sort: got %d records, stats %+v", len(got), st)
	}
}

func TestSortPreservesMultiset(t *testing.T) {
	f := func(seed int64, n uint16, mem uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]uint64, int(n)%2000)
		for i := range vals {
			vals[i] = uint64(rng.Intn(50)) // many duplicates
		}
		d := diskio.NewDisk(64, 5, time.Millisecond)
		in := writeU64s(d, vals)
		out, _, err := Sort(in, Config{
			Disk: d, RecordSize: recSize,
			Memory: int64(mem%4096) + 128, Less: u64Less,
		})
		if err != nil {
			return false
		}
		got := readU64s(out)
		if len(got) != len(vals) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		// Multiset equality.
		count := make(map[uint64]int)
		for _, v := range vals {
			count[v]++
		}
		for _, v := range got {
			count[v]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSortIOCharged(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	d := diskio.NewDisk(64, 5, time.Millisecond)
	in := writeU64s(d, vals)
	before := d.Stats()
	if _, _, err := Sort(in, Config{Disk: d, RecordSize: recSize, Memory: 2048, Less: u64Less}); err != nil {
		t.Fatal(err)
	}
	delta := d.Stats().Sub(before)
	// Run formation alone reads and writes the data once each.
	minPages := int64(len(vals) * recSize / 64)
	if delta.PagesRead < minPages || delta.PagesWritten < minPages {
		t.Fatalf("sort I/O not charged: %+v (want ≥%d pages each way)", delta, minPages)
	}
}

// TestSortParallelIdenticalOutput: the parallel sort produces a
// byte-identical sorted file and the same run/pass structure as the
// serial one — chunk boundaries and merge groups do not depend on the
// worker count.
func TestSortParallelIdenticalOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, 6000)
	for i := range vals {
		vals[i] = rng.Uint64() % 512 // plenty of duplicates: ties must land identically
	}
	run := func(parallel int) ([]uint64, Stats) {
		d := diskio.NewDisk(64, 5, time.Millisecond)
		in := writeU64s(d, vals)
		out, st, err := Sort(in, Config{
			Disk: d, RecordSize: recSize, Memory: 1024,
			Less: u64Less, Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		return readU64s(out), st
	}
	serial, sst := run(1)
	par, pst := run(4)
	if sst.Runs != pst.Runs || sst.MergePass != pst.MergePass {
		t.Fatalf("structure diverged: serial %+v parallel %+v", sst, pst)
	}
	if len(serial) != len(par) {
		t.Fatalf("record counts diverged: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("pos %d: serial %d parallel %d", i, serial[i], par[i])
		}
	}
}

// A tieRec is a 16-byte record: a major key with heavy ties, a minor key
// with ties of its own, and the record's input position, which makes
// every record distinct so that byte equality of two outputs is equality
// of their orders.
const tieRecSize = 16

func tieMajor(rec []byte) uint64 { return uint64(binary.LittleEndian.Uint32(rec)) }
func tieMinor(rec []byte) uint32 { return binary.LittleEndian.Uint32(rec[4:]) }

func tieInput(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]byte, n*tieRecSize)
	for i := 0; i < n; i++ {
		rec := recs[i*tieRecSize:]
		binary.LittleEndian.PutUint32(rec, uint32(rng.Intn(9)))
		binary.LittleEndian.PutUint32(rec[4:], uint32(rng.Intn(5)))
		binary.LittleEndian.PutUint64(rec[8:], uint64(i))
	}
	return recs
}

// TestSortIsStableUnderEveryComparator sorts one input with heavy ties
// three ways — by Key alone, by Less alone, by Key with Less for the ties
// — through many runs and several merge passes, and demands the order of
// sort.SliceStable byte for byte at every worker count, with run files
// that do not depend on the worker count.
func TestSortIsStableUnderEveryComparator(t *testing.T) {
	const n = 5000
	recs := tieInput(11, n)
	byMajor := func(a, b []byte) bool { return tieMajor(a) < tieMajor(b) }
	byBoth := func(a, b []byte) bool {
		if tieMajor(a) != tieMajor(b) {
			return tieMajor(a) < tieMajor(b)
		}
		return tieMinor(a) < tieMinor(b)
	}
	byMinor := func(a, b []byte) bool { return tieMinor(a) < tieMinor(b) }
	for _, tc := range []struct {
		name  string
		key   func([]byte) uint64
		less  Less
		order Less // the order the output must be stable under
	}{
		{"key", tieMajor, nil, byMajor},
		{"less", nil, byBoth, byBoth},
		{"key+less", tieMajor, byMinor, byBoth},
	} {
		want := make([][]byte, n)
		for i := range want {
			want[i] = recs[i*tieRecSize : (i+1)*tieRecSize]
		}
		sort.SliceStable(want, func(i, j int) bool { return tc.order(want[i], want[j]) })

		var runs1 [][]byte
		for _, workers := range []int{1, 2, 4} {
			// 64 records per run and fan-in 7: 79 runs, three merge passes.
			cfg := Config{
				Disk: diskio.NewDisk(64, 5, time.Millisecond), RecordSize: tieRecSize,
				Memory: 1024, BufPages: 2, Key: tc.key, Less: tc.less, Parallel: workers,
			}
			in := writeRecs(cfg.Disk, recs, tieRecSize)
			out, st, err := Sort(in, cfg)
			if err != nil {
				t.Fatalf("%s/parallel=%d: %v", tc.name, workers, err)
			}
			if st.Runs < 50 || st.MergePass < 2 {
				t.Fatalf("%s/parallel=%d: %d runs, %d merge passes — the input must not fit", tc.name, workers, st.Runs, st.MergePass)
			}
			if (st.Comparisons == 0) != (tc.less == nil) {
				t.Fatalf("%s/parallel=%d: Comparisons = %d, which counts Less calls only", tc.name, workers, st.Comparisons)
			}
			got := readRecs(out, tieRecSize)
			for i := range want {
				if !bytes.Equal(got[i*tieRecSize:(i+1)*tieRecSize], want[i]) {
					t.Fatalf("%s/parallel=%d: record %d is input record %d, a stable sort puts %d there",
						tc.name, workers, i, binary.LittleEndian.Uint64(got[i*tieRecSize+8:]), binary.LittleEndian.Uint64(want[i][8:]))
				}
			}

			var st2 Stats
			st2.Records = n
			runs, err := formRuns(in, cfg, cfg.Disk.NewRegistry(), nil, &st2)
			if err != nil {
				t.Fatalf("%s/parallel=%d: formRuns: %v", tc.name, workers, err)
			}
			for i, r := range runs {
				if workers == 1 {
					runs1 = append(runs1, r.f.Bytes())
				} else if !bytes.Equal(r.f.Bytes(), runs1[i]) {
					t.Fatalf("%s: run %d formed by %d workers differs from the serial one", tc.name, i, workers)
				}
			}
		}
	}
}

// TestSortRejectsAConfigWithoutAnOrder: neither Key nor Less is a
// configuration error reported before any file exists, not a nil call on
// a worker goroutine.
func TestSortRejectsAConfigWithoutAnOrder(t *testing.T) {
	d := diskio.NewDisk(64, 5, time.Millisecond)
	in := writeU64s(d, []uint64{3, 1, 2})
	out, _, err := Sort(in, Config{Disk: d, RecordSize: recSize, Memory: 1024, Parallel: 2})
	if err == nil || out != nil {
		t.Fatalf("Sort without Key and Less = (%v, %v), want an error", out, err)
	}
	if n := d.NumFiles(); n != 1 {
		t.Fatalf("%d files on the disk, want the input alone", n)
	}
}
