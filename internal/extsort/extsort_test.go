package extsort

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand"
	"slices"
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
			cfg.Reg = cfg.Disk.NewRegistry()
			runs, err := formRuns(in, cfg, &st2)
			if err != nil {
				t.Fatalf("%s/parallel=%d: formRuns: %v", tc.name, workers, err)
			}
			for i, r := range runs {
				if workers == 1 {
					runs1 = append(runs1, r.File.Bytes())
				} else if !bytes.Equal(r.File.Bytes(), runs1[i]) {
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

// TestSortIsItsExportedHalvesComposed: Sort is formRuns — which reads each
// chunk and hands it to RunWriter.WriteRun — followed by MergeDown to one run.
// Composing the exported halves by hand over the same chunks must give
// the same run files, the same output, the same passes and Less calls and
// the same I/O charge for the halves' part, at every worker count; and
// all of it is pinned to what Sort produced before the halves were cut
// out of it (FNV-64a of the run files in order, of the output, and the
// counters, recorded at the parent commit).
func TestSortIsItsExportedHalvesComposed(t *testing.T) {
	const n = 5000
	recs := tieInput(11, n)
	byMinor := func(a, b []byte) bool { return tieMinor(a) < tieMinor(b) }
	sum := func(files ...[]byte) uint64 {
		h := fnv.New64a()
		for _, b := range files {
			h.Write(b)
		}
		return h.Sum64()
	}
	const (
		parentRuns, parentOut     = 0x7e9d0781a8d38096, 0x2a051f1189e90a29
		parentPasses, parentComps = 3, 39950
		parentUnits               = 53383.0
	)
	for _, workers := range []int{1, 2, 4} {
		cfg := Config{
			Disk: diskio.NewDisk(64, 5, time.Millisecond), RecordSize: tieRecSize,
			Memory: 1024, BufPages: 2, Key: tieMajor, Less: byMinor, Parallel: workers,
		}
		in := writeRecs(cfg.Disk, recs, tieRecSize)
		before := cfg.Disk.Stats()
		out, st, err := Sort(in, cfg)
		if err != nil {
			t.Fatalf("parallel=%d: Sort: %v", workers, err)
		}
		units := cfg.Disk.Stats().Sub(before).CostUnits
		var st2 Stats
		st2.Records = n
		cfg.Reg = cfg.Disk.NewRegistry()
		formed, err := formRuns(in, cfg, &st2)
		if err != nil {
			t.Fatalf("parallel=%d: formRuns: %v", workers, err)
		}
		var runBytes [][]byte
		for _, r := range formed {
			runBytes = append(runBytes, r.File.Bytes())
		}
		if got := sum(runBytes...); got != parentRuns {
			t.Errorf("parallel=%d: run files hash %#x, the parent's %#x", workers, got, uint64(parentRuns))
		}
		if got := sum(out.Bytes()); got != parentOut {
			t.Errorf("parallel=%d: output hash %#x, the parent's %#x", workers, got, uint64(parentOut))
		}
		if st.Runs != 79 || len(formed) != 79 || st.MergePass != parentPasses || st.Comparisons != parentComps || units != parentUnits {
			t.Errorf("parallel=%d: %d runs, %d passes, %d comparisons, %g units; the parent's 79, %d, %d, %g",
				workers, st.Runs, st.MergePass, st.Comparisons, units, parentPasses, parentComps, parentUnits)
		}

		// The halves by hand, over chunks that never were a file.
		cfg.Reg = cfg.Disk.NewRegistry()
		perRun := int(cfg.Memory) / tieRecSize
		var runs []Run
		var hand Stats
		var rw RunWriter // one index for every run
		for lo := 0; lo < n; lo += perRun {
			hi := min(lo+perRun, n)
			f := cfg.Reg.Create()
			c, err := rw.WriteRun(f, recs[lo*tieRecSize:hi*tieRecSize], cfg)
			if err != nil {
				t.Fatalf("parallel=%d: WriteRun: %v", workers, err)
			}
			hand.Comparisons += c
			runs = append(runs, Run{File: f, Recs: int64(hi - lo)})
		}
		for i, r := range runs {
			if !bytes.Equal(r.File.Bytes(), runBytes[i]) {
				t.Fatalf("parallel=%d: run %d written by WriteRun differs from the one Sort forms", workers, i)
			}
		}
		if runs, err = MergeDown(runs, 1, cfg, &hand); err != nil || len(runs) != 1 {
			t.Fatalf("parallel=%d: MergeDown = (%d runs, %v)", workers, len(runs), err)
		}
		if !bytes.Equal(runs[0].File.Bytes(), out.Bytes()) || hand.MergePass != st.MergePass || hand.Comparisons != st.Comparisons {
			t.Fatalf("parallel=%d: the halves composed give %d passes, %d comparisons and a different file than Sort (%d, %d)",
				workers, hand.MergePass, hand.Comparisons, st.MergePass, st.Comparisons)
		}
		if live := cfg.Reg.Live(); live != 1 {
			t.Fatalf("parallel=%d: %d files registered after MergeDown, want the one run it returned", workers, live)
		}
	}
}

// TestMergeDownStopsAtK: MergeDown merges by whole passes and stops as
// soon as at most k runs are left; a list that already fits is returned
// untouched, with no pass counted and no I/O charged.
func TestMergeDownStopsAtK(t *testing.T) {
	cfg := Config{
		Disk: diskio.NewDisk(64, 5, time.Millisecond), RecordSize: recSize,
		Memory: 512, BufPages: 2, Less: u64Less,
	}
	cfg.Reg = cfg.Disk.NewRegistry()
	if got := cfg.FanIn(); got != 3 {
		t.Fatalf("FanIn = %d, want 512/(2*64) - 1 = 3", got)
	}
	var runs []Run
	rec := make([]byte, 8*recSize)
	for i := 0; i < 20; i++ {
		for k := 0; k < 8; k++ {
			binary.LittleEndian.PutUint64(rec[k*recSize:], uint64((i*7+k*13)%50))
		}
		f := cfg.Reg.Create()
		if _, err := new(RunWriter).WriteRun(f, rec, cfg); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, Run{File: f, Recs: 8})
	}
	var st Stats
	before := cfg.Disk.Stats()
	same, err := MergeDown(runs, 20, cfg, &st)
	if err != nil || len(same) != 20 || st.MergePass != 0 || cfg.Disk.Stats() != before {
		t.Fatalf("MergeDown of a list that fits = (%d runs, %v), %d passes", len(same), err, st.MergePass)
	}
	// 20 -> 7 -> 3: two passes reach k = 5, one would not.
	got, err := MergeDown(runs, 5, cfg, &st)
	if err != nil || len(got) != 3 || st.MergePass != 2 {
		t.Fatalf("MergeDown(20 runs, k=5) = (%d runs, %v) in %d passes, want 3 runs in 2", len(got), err, st.MergePass)
	}
	var total int64
	for _, r := range got {
		vals := readU64s(r.File)
		if int64(len(vals)) != r.Recs || !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
			t.Fatalf("merged run: %d records read, %d counted, sorted=%v", len(vals), r.Recs, sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }))
		}
		total += r.Recs
	}
	if total != 160 || cfg.Reg.Live() != 3 {
		t.Fatalf("%d records in the merged runs, %d files registered; want 160 and 3", total, cfg.Reg.Live())
	}
}

// TestMergeStreamsWhatMergeDownWrites: Merge hands yield the records, in
// the order, that merging the same runs into one would write; it reads
// the runs and writes nothing, and an error from yield ends it. Each
// record comes with the index of its run, also where runs share keys.
func TestMergeStreamsWhatMergeDownWrites(t *testing.T) {
	cfg := Config{
		Disk: diskio.NewDisk(64, 5, time.Millisecond), RecordSize: recSize,
		Memory: 4096, BufPages: 2, Less: u64Less,
	}
	cfg.Reg = cfg.Disk.NewRegistry()
	var runs []Run
	rec := make([]byte, 8*recSize)
	for i := 0; i < 5; i++ {
		for k := 0; k < 8; k++ {
			binary.LittleEndian.PutUint64(rec[k*recSize:], uint64((i*7+k*13)%50))
		}
		f := cfg.Reg.Create()
		if _, err := new(RunWriter).WriteRun(f, rec, cfg); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, Run{File: f, Recs: 8})
	}
	before := cfg.Disk.Stats()
	var got []uint64
	if _, err := Merge(runs, cfg.BufPages, cfg, func(rec []byte, _ int) error {
		got = append(got, binary.LittleEndian.Uint64(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if io := cfg.Disk.Stats().Sub(before); io.PagesWritten != 0 || io.PagesRead == 0 {
		t.Fatalf("Merge read %d pages and wrote %d, want reads only", io.PagesRead, io.PagesWritten)
	}
	merged, err := MergeDown(runs, 1, cfg, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if want := readU64s(merged[0].File); len(got) != 40 || !slices.Equal(got, want) {
		t.Fatalf("Merge yielded %v, MergeDown wrote %v", got, want)
	}
	stop, n := errors.New("stop"), 0
	if _, err := Merge(merged, cfg.BufPages, cfg, func([]byte, int) error {
		if n++; n == 3 {
			return stop
		}
		return nil
	}); !errors.Is(err, stop) || n != 3 {
		t.Fatalf("yield's error after %d records: Merge returned %v", n, err)
	}

	// Runs that share keys, one key repeated inside a run that the other
	// runs hold too, merged by Key alone: each record comes with the index
	// of its run, in (key, run, position) order.
	kcfg := Config{Disk: cfg.Disk, RecordSize: tieRecSize, Memory: 4096, BufPages: 2, Key: s3jKeyOf}
	var shared []Run
	var want [][3]uint64 // key, run, position
	for ri, keys := range [][]uint64{{1, 4, 4, 4, 9}, {4, 4, 7}, {0, 4, 9, 9}, {}, {4}} {
		chunk := make([]byte, len(keys)*tieRecSize)
		for p, k := range keys {
			binary.LittleEndian.PutUint64(chunk[p*tieRecSize:], k)
			binary.LittleEndian.PutUint64(chunk[p*tieRecSize+8:], uint64(ri)<<32|uint64(p))
			want = append(want, [3]uint64{k, uint64(ri), uint64(p)})
		}
		f := cfg.Reg.Create()
		if _, err := new(RunWriter).WriteRun(f, chunk, kcfg); err != nil {
			t.Fatal(err)
		}
		shared = append(shared, Run{File: f, Recs: int64(len(keys))})
	}
	slices.SortFunc(want, func(a, b [3]uint64) int { return slices.Compare(a[:], b[:]) })
	var order [][3]uint64
	if _, err := Merge(shared, kcfg.BufPages, kcfg, func(rec []byte, run int) error {
		tag := binary.LittleEndian.Uint64(rec[8:])
		if uint64(run) != tag>>32 {
			t.Fatalf("record %#x of run %d yielded with run index %d", tag, tag>>32, run)
		}
		order = append(order, [3]uint64{s3jKeyOf(rec), uint64(run), tag & (1<<32 - 1)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, want) {
		t.Fatalf("Merge of runs sharing keys yielded %v, want %v", order, want)
	}
}

// s3jKey draws a scan key shaped like S³J's: the start of a level-l cell's
// depth-24 code interval over the level in the low 5 bits, levels 1..12.
func s3jKey(rng *rand.Rand) uint64 {
	l := 1 + rng.Intn(12)
	code := rng.Uint64() & (1<<(2*l) - 1)
	return code<<(2*(24-l))<<5 | uint64(l)
}

// s3jKeyOf is the sort key of a record that s3jChunk wrote.
func s3jKeyOf(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec) }

// s3jChunk returns n records of rs ≥ 8 bytes: an S³J-shaped key, then
// random payload bytes.
func s3jChunk(rng *rand.Rand, n, rs int) []byte {
	chunk := make([]byte, n*rs)
	rng.Read(chunk)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(chunk[i*rs:], s3jKey(rng))
	}
	return chunk
}

// neverLess is a Less that tells no two records apart: with it a Key
// sort takes the comparator path and gives that path's (key, position)
// order.
func neverLess(a, b []byte) bool { return false }

// keyedChunk returns one 16-byte record per key: the key, then the
// record's position, so that every record is distinct and byte equality
// of two runs is equality of their orders.
func keyedChunk(keys []uint64) []byte {
	chunk := make([]byte, len(keys)*tieRecSize)
	for i, k := range keys {
		binary.LittleEndian.PutUint64(chunk[i*tieRecSize:], k)
		binary.LittleEndian.PutUint64(chunk[i*tieRecSize+8:], uint64(i))
	}
	return chunk
}

// checkKeyOrderRun writes chunk as one run through the key-only path and
// through the comparator path, and fails unless the two runs are byte
// for byte the same file and hold the chunk's records stably sorted by
// key.
func checkKeyOrderRun(t *testing.T, chunk []byte) {
	t.Helper()
	d := diskio.NewDisk(64, 5, time.Millisecond)
	var rw RunWriter
	run := func(less Less) *diskio.File {
		cfg := Config{Disk: d, RecordSize: tieRecSize, Memory: 1024, Key: s3jKeyOf, Less: less}
		f := d.Create("")
		if _, err := rw.WriteRun(f, chunk, cfg); err != nil {
			t.Fatal(err)
		}
		return f
	}
	keyOnly, withLess := run(nil), run(neverLess)
	if !bytes.Equal(keyOnly.Bytes(), withLess.Bytes()) {
		t.Fatalf("the key-only run differs from the comparator path's")
	}
	want := make([][]byte, len(chunk)/tieRecSize)
	for i := range want {
		want[i] = chunk[i*tieRecSize:][:tieRecSize]
	}
	sort.SliceStable(want, func(i, j int) bool { return s3jKeyOf(want[i]) < s3jKeyOf(want[j]) })
	if !bytes.Equal(readRecs(keyOnly, tieRecSize), bytes.Join(want, nil)) {
		t.Fatalf("the key-only run is not the chunk stably sorted by key")
	}
}

// TestWriteRunKeyOnlyIsTheComparatorOrder: a Key-only WriteRun, which
// sorts with a radix over the bytes that vary, writes the run the
// comparator path writes for the same chunk, on the shapes where a radix
// can slip: no pass at all, one pass on the top or the bottom byte,
// heavy ties and S³J's scan keys. Sort composes such runs, at every
// worker count, into the comparator path's output.
func TestWriteRunKeyOnlyIsTheComparatorOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draw := func(n int, f func(i int) uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = f(i)
		}
		return keys
	}
	for _, tc := range []struct {
		name string
		keys []uint64
	}{
		{"n=0", nil},
		{"n=1", []uint64{42}},
		{"n=2", []uint64{7, 3}},
		{"n=2 equal", []uint64{3, 3}},
		{"all equal", draw(300, func(int) uint64 { return 0xdeadbeef })},
		{"byte 7 only", draw(300, func(int) uint64 { return uint64(rng.Intn(256))<<56 | 0x55 })},
		{"byte 0 only", draw(300, func(int) uint64 { return 0xaa<<56 | uint64(rng.Intn(256)) })},
		{"heavy ties", draw(300, func(int) uint64 { return uint64(rng.Intn(4)) << (8 * rng.Intn(8)) })},
		{"s3j keys", draw(1000, func(int) uint64 { return s3jKey(rng) })},
	} {
		t.Run(tc.name, func(t *testing.T) { checkKeyOrderRun(t, keyedChunk(tc.keys)) })
	}

	chunk := keyedChunk(draw(3000, func(int) uint64 { return s3jKey(rng) >> (5 + 2*rng.Intn(20)) }))
	for _, workers := range []int{1, 4} {
		var outs [2][]byte
		for i, less := range []Less{nil, neverLess} {
			// 64 records per run: 47 runs and two merge passes.
			cfg := Config{
				Disk: diskio.NewDisk(64, 5, time.Millisecond), RecordSize: tieRecSize,
				Memory: 1024, BufPages: 2, Key: s3jKeyOf, Less: less, Parallel: workers,
			}
			out, st, err := Sort(writeRecs(cfg.Disk, chunk, tieRecSize), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Runs != 47 || st.MergePass != 2 {
				t.Fatalf("parallel=%d: %d runs, %d passes; want 47 and 2", workers, st.Runs, st.MergePass)
			}
			outs[i] = out.Bytes()
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Fatalf("parallel=%d: the key-only Sort differs from the comparator path's", workers)
		}
	}
}

// FuzzWriteRunKeyOrder: for arbitrary keys — eight bytes each, spread
// over a few bytes of the word so that ties and skipped bytes are common
// — the key-only run is the comparator path's run and the chunk stably
// sorted by key.
func FuzzWriteRunKeyOrder(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, mask uint8) {
		keys := make([]uint64, len(raw)/8)
		for i := range keys {
			k := binary.LittleEndian.Uint64(raw[i*8:])
			for b := 0; b < 8; b++ {
				if mask>>b&1 != 0 {
					k &^= 0xff << (8 * b) // byte b is 0 in every key
				}
			}
			keys[i] = k
		}
		checkKeyOrderRun(t, keyedChunk(keys))
	})
}

// FuzzMergeOrder: runs drawn from the input, with heavy ties in Key and
// in Less, are merged by Key alone and by Key with Less for the ties, and
// Merge must yield every record once, with the index of its run, in the
// order of a stable sort of the runs' records, taken in run order, by
// key, then Less.
func FuzzMergeOrder(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(2))
	f.Add(bytes.Repeat([]byte{0x35, 0x81}, 200), uint8(6))
	f.Fuzz(func(t *testing.T, raw []byte, nruns uint8) {
		k := 1 + int(nruns%8)
		chunks := make([][]byte, k)
		for i := 0; i+1 < len(raw); i += 2 {
			b0, b1 := raw[i], raw[i+1]
			run := int(b0) % k
			rec := make([]byte, tieRecSize)
			major := uint32(b0>>4) & 3 // four keys: ties everywhere
			if b1&0x80 != 0 {
				major |= 1 << 31
			}
			binary.LittleEndian.PutUint32(rec, major)
			binary.LittleEndian.PutUint32(rec[4:], uint32(b1&3))
			binary.LittleEndian.PutUint64(rec[8:], uint64(run)<<32|uint64(len(chunks[run])/tieRecSize))
			chunks[run] = append(chunks[run], rec...)
		}
		minorLess := func(a, b []byte) bool { return tieMinor(a) < tieMinor(b) }
		for _, less := range []Less{nil, minorLess} {
			d := diskio.NewDisk(64, 5, time.Millisecond)
			cfg := Config{Disk: d, RecordSize: tieRecSize, Memory: 1024, Key: tieMajor, Less: less}
			type yielded struct {
				rec string
				run int
			}
			var runs []Run
			var want []yielded
			for run, chunk := range chunks {
				f := d.Create("")
				if _, err := new(RunWriter).WriteRun(f, chunk, cfg); err != nil {
					t.Fatal(err)
				}
				runs = append(runs, Run{File: f, Recs: int64(len(chunk) / tieRecSize)})
				recs := readRecs(f, tieRecSize)
				for p := 0; p < len(recs); p += tieRecSize {
					want = append(want, yielded{string(recs[p : p+tieRecSize]), run})
				}
			}
			sort.SliceStable(want, func(i, j int) bool {
				a, b := []byte(want[i].rec), []byte(want[j].rec)
				if tieMajor(a) != tieMajor(b) {
					return tieMajor(a) < tieMajor(b)
				}
				return less != nil && less(a, b)
			})
			var got []yielded
			if _, err := Merge(runs, 1, cfg, func(rec []byte, run int) error {
				got = append(got, yielded{string(rec), run})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("less=%v: Merge of %d runs yielded %d records out of order (want %d)", less != nil, k, len(got), len(want))
			}
		}
	})
}
