package s3j

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/extsort"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/sfc"
)

// writeRun stores one level record per key, in the given order, as a run;
// record i carries ids[i] (or i when ids is nil).
func writeRun(d *diskio.Disk, bufPages int, keys, ids []uint64) extsort.Run {
	f := d.Create("run")
	w := recfile.NewRecWriter(f, levRecSize, bufPages)
	var buf [levRecSize]byte
	for i, key := range keys {
		id := uint64(i)
		if ids != nil {
			id = ids[i]
		}
		encodeLevRec(buf[:], key, geom.KPE{ID: id})
		if err := w.Write(buf[:]); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return extsort.Run{File: f, Recs: int64(len(keys))}
}

func TestLevRecRoundTrip(t *testing.T) {
	f := func(code, id uint64, x1, y1, x2, y2 float64) bool {
		k := geom.KPE{ID: id, Rect: geom.NewRect(x1, y1, x2, y2)}
		var buf [levRecSize]byte
		encodeLevRec(buf[:], code, k)
		if decodeLevKey(buf[:]) != code {
			return false
		}
		gc, gk := decodeLevRec(buf[:])
		return gc == code && gk == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestScanKeyIsCellPreOrder: the scan key round-trips the cell, a cell
// sorts before every cell inside it and after every cell that ends before
// it starts, and siblings sort along the curve.
func TestScanKeyIsCellPreOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		level := rng.Intn(sfc.MaxLevel + 1)
		code := uint64(rng.Int63n(1 << uint(2*level)))
		key := scanKey(code, level)
		gc, gl, lo, hi := keyCell(key)
		wlo, whi := sfc.CodeInterval(code, level)
		if gc != code || gl != level || lo != wlo || hi != whi {
			t.Fatalf("keyCell(scanKey(%d, %d)) = (%d, %d, %d, %d), want interval [%d, %d)", code, level, gc, gl, lo, hi, wlo, whi)
		}
		if level < sfc.MaxLevel {
			first, last := scanKey(code<<2, level+1), scanKey(code<<2|3, level+1)
			if !(key < first && first < last) {
				t.Fatalf("cell (%d, %d) key %d, its children's %d..%d", code, level, key, first, last)
			}
			if next := scanKey(code+1, level); code+1 < 1<<uint(2*level) && last >= next {
				t.Fatalf("cell (%d, %d): last child key %d not before the next sibling's %d", code, level, last, next)
			}
		}
	}
	if scanKey(0, 0) != 0 {
		t.Fatal("level 0 must need no code: its key is 0")
	}
}

// cell is one cell mergeCells delivered: its key, relation and records.
type cell struct {
	key   uint64
	rel   int
	items []geom.KPE
}

// cellsOf merges runs through mergeCells, each cursor reading in requests
// of bufPages pages, at one worker, and returns the cells it delivered,
// in order.
func cellsOf(t *testing.T, runs [2][]extsort.Run, bufPages int) []cell {
	return cellsAt(t, runs, bufPages, 1)
}

// cellsAt is cellsOf at the given worker count: from two on, the merge
// runs as a stage of its own.
func cellsAt(t *testing.T, runs [2][]extsort.Run, bufPages, workers int) []cell {
	t.Helper()
	var arena [2][]geom.KPE
	var cells []cell
	var start int
	closeLast := func() {
		if n := len(cells); n > 0 {
			cells[n-1].items = arena[cells[n-1].rel][start:]
		}
	}
	cfg := extsort.Config{RecordSize: levRecSize, Key: decodeLevKey}
	if err := mergeCells(runs, bufPages, cfg, workers, &arena, func(key uint64, rel int) {
		closeLast()
		cells, start = append(cells, cell{key: key, rel: rel}), len(arena[rel])
	}); err != nil {
		t.Fatal(err)
	}
	closeLast()
	return cells
}

func TestGroupCursorGroupsByCode(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Millisecond)
	// Three cells: key 3 (two records), key 7 (one), key 9 (three).
	run := writeRun(d, 2, []uint64{3, 3, 7, 9, 9, 9}, nil)
	got := cellsOf(t, [2][]extsort.Run{{run}, nil}, 2)
	want := []struct {
		code uint64
		n    int
	}{{3, 2}, {7, 1}, {9, 3}}
	if len(got) != len(want) {
		t.Fatalf("%d cells, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].key != w.code || got[i].rel != 0 || len(got[i].items) != w.n {
			t.Fatalf("cell %d = (%d, rel %d, %d items), want (%d, rel 0, %d)", i, got[i].key, got[i].rel, len(got[i].items), w.code, w.n)
		}
	}
}

func TestGroupCursorEmptyFile(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Millisecond)
	if got := cellsOf(t, [2][]extsort.Run{nil, {writeRun(d, 2, nil, nil)}}, 2); len(got) != 0 {
		t.Fatalf("empty run must yield no cells, got %d", len(got))
	}
}

func TestGroupCursorSingleGroupWholeFile(t *testing.T) {
	// The level-0 case: every key zero, one cell holding the whole run.
	d := diskio.NewDisk(256, 5, time.Millisecond)
	const n = 500
	got := cellsOf(t, [2][]extsort.Run{{writeRun(d, 2, make([]uint64, n), nil)}, nil}, 2)
	if len(got) != 1 || got[0].key != 0 || len(got[0].items) != n {
		t.Fatalf("level-0 cells = %d, want one of %d records", len(got), n)
	}
	for i, k := range got[0].items {
		if k.ID != uint64(i) {
			t.Fatalf("record order broken at %d", i)
		}
	}
}

// TestGroupCursorReuseDst: the records land in the caller's arena, and a
// cell appended after open truncated the arena (as the scan's retiring
// does) takes the space the earlier cell freed.
func TestGroupCursorReuseDst(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Millisecond)
	run := writeRun(d, 2, []uint64{1, 2}, []uint64{10, 20})
	buf := make([]geom.KPE, 0, 8)
	arena := [2][]geom.KPE{buf, nil}
	opened := 0
	cfg := extsort.Config{RecordSize: levRecSize, Key: decodeLevKey}
	if err := mergeCells([2][]extsort.Run{{run}, nil}, 2, cfg, 1, &arena, func(uint64, int) {
		if opened++; opened == 2 && (len(arena[0]) != 1 || arena[0][0].ID != 10) {
			t.Fatal("arena reuse broke the first cell")
		}
		arena[0] = arena[0][:0] // the caller may reuse the arena after copying out
	}); err != nil {
		t.Fatal(err)
	}
	if len(arena[0]) != 1 || arena[0][0].ID != 20 || &arena[0][0] != &buf[:1][0] {
		t.Fatal("arena reuse broke the second cell")
	}
}

func TestGroupCursorRandomized(t *testing.T) {
	f := func(seed int64, nGroups uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := diskio.NewDisk(128, 5, time.Millisecond)
		// Ascending keys with random cell sizes, as after sorting.
		var wantCodes, keys []uint64
		var wantSizes []int
		code := uint64(0)
		for g := 0; g < int(nGroups)%20+1; g++ {
			code += uint64(rng.Intn(5) + 1)
			size := rng.Intn(6) + 1
			wantCodes = append(wantCodes, code)
			wantSizes = append(wantSizes, size)
			for i := 0; i < size; i++ {
				keys = append(keys, code)
			}
		}
		got := cellsOf(t, [2][]extsort.Run{nil, {writeRun(d, 1+rng.Intn(4), keys, nil)}}, 2)
		if len(got) != len(wantCodes) {
			return false
		}
		for i := range wantCodes {
			if got[i].key != wantCodes[i] || got[i].rel != 1 || len(got[i].items) != wantSizes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeCellsOrder: a cell whose records lie in several runs is
// gathered from them in run order, R's cell of a key comes before S's,
// and a key that only one relation holds is one cell. With the merge as a
// stage of its own (two workers) the cells are the same, also when they
// span the boundaries of the batches the merge stage hands over.
func TestMergeCellsOrder(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Millisecond)
	runs := [2][]extsort.Run{
		{writeRun(d, 2, []uint64{2, 5, 5}, []uint64{1, 2, 3}), writeRun(d, 2, []uint64{5, 8}, []uint64{4, 5})},
		{writeRun(d, 2, []uint64{5, 5}, []uint64{6, 7}), writeRun(d, 2, []uint64{2}, []uint64{8})},
	}
	want := []struct {
		key uint64
		rel int
		ids []uint64
	}{{2, 0, []uint64{1}}, {2, 1, []uint64{8}}, {5, 0, []uint64{2, 3, 4}}, {5, 1, []uint64{6, 7}}, {8, 0, []uint64{5}}}
	for _, workers := range []int{1, 2} {
		got := cellsAt(t, runs, 2, workers)
		if len(got) != len(want) {
			t.Fatalf("parallel=%d: %d cells, want %d", workers, len(got), len(want))
		}
		for i, w := range want {
			var ids []uint64
			for _, k := range got[i].items {
				ids = append(ids, k.ID)
			}
			if got[i].key != w.key || got[i].rel != w.rel || !slices.Equal(ids, w.ids) {
				t.Fatalf("parallel=%d: cell %d = (%d, rel %d, ids %v), want (%d, rel %d, ids %v)", workers, i, got[i].key, got[i].rel, ids, w.key, w.rel, w.ids)
			}
		}
	}

	// Three runs a relation, each one to two batches long, whose cells
	// repeat across runs and relations.
	rng := rand.New(rand.NewSource(9))
	var big [2][]extsort.Run
	id := uint64(0)
	for rel := range big {
		for r := 0; r < 3; r++ {
			keys := make([]uint64, batchRecs+rng.Intn(batchRecs))
			ids := make([]uint64, len(keys))
			for i := range keys {
				keys[i], ids[i] = uint64(rng.Intn(400)), id
				id++
			}
			slices.Sort(keys)
			big[rel] = append(big[rel], writeRun(d, 2, keys, ids))
		}
	}
	serial, piped := cellsAt(t, big, 2, 1), cellsAt(t, big, 2, 2)
	if len(serial) != len(piped) {
		t.Fatalf("%d cells at one worker, %d at two", len(serial), len(piped))
	}
	for i := range serial {
		a, b := serial[i], piped[i]
		if a.key != b.key || a.rel != b.rel || !slices.Equal(a.items, b.items) {
			t.Fatalf("cell %d: (%d, rel %d, %d items) at one worker, (%d, rel %d, %d items) at two", i, a.key, a.rel, len(a.items), b.key, b.rel, len(b.items))
		}
	}
}
