package s3j

import (
	"math/rand"
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

func TestGroupCursorGroupsByCode(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Millisecond)
	// Three groups: key 3 (two records), key 7 (one), key 9 (three).
	run := writeRun(d, 2, []uint64{3, 3, 7, 9, 9, 9}, nil)

	c := newGroupCursor(run, 2, 0, 0)
	if ok, err := c.fillPeek(); err != nil || !ok || c.pkKey != 3 {
		t.Fatalf("peek = (%d,%v,%v), want (3,true)", c.pkKey, ok, err)
	}
	wantGroups := []struct {
		code uint64
		n    int
	}{{3, 2}, {7, 1}, {9, 3}}
	for _, wg := range wantGroups {
		code, items, ok, err := c.nextGroup(nil)
		if err != nil || !ok || code != wg.code || len(items) != wg.n {
			t.Fatalf("group = (%d, %d items, %v, %v), want (%d, %d)", code, len(items), ok, err, wg.code, wg.n)
		}
	}
	if _, _, ok, err := c.nextGroup(nil); ok || err != nil || c.peeked {
		t.Fatalf("cursor must end after last group (ok=%v err=%v peeked=%v)", ok, err, c.peeked)
	}
}

func TestGroupCursorEmptyFile(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Millisecond)
	c := newGroupCursor(writeRun(d, 2, nil, nil), 2, 1, 0)
	if ok, err := c.fillPeek(); ok || err != nil {
		t.Fatalf("empty file must not peek (ok=%v err=%v)", ok, err)
	}
	if _, _, ok, err := c.nextGroup(nil); ok || err != nil {
		t.Fatalf("empty file must yield no groups (ok=%v err=%v)", ok, err)
	}
}

func TestGroupCursorSingleGroupWholeFile(t *testing.T) {
	// The level-0 case: every key zero, one group holding the whole run.
	d := diskio.NewDisk(256, 5, time.Millisecond)
	const n = 500
	c := newGroupCursor(writeRun(d, 2, make([]uint64, n), nil), 2, 0, 0)
	code, items, ok, err := c.nextGroup(nil)
	if err != nil || !ok || code != 0 || len(items) != n {
		t.Fatalf("level-0 group = (%d, %d items, %v, %v)", code, len(items), ok, err)
	}
	for i, k := range items {
		if k.ID != uint64(i) {
			t.Fatalf("record order broken at %d", i)
		}
	}
}

func TestGroupCursorReuseDst(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Millisecond)
	c := newGroupCursor(writeRun(d, 2, []uint64{1, 2}, []uint64{10, 20}), 2, 0, 0)
	buf := make([]geom.KPE, 0, 8)
	_, items, _, _ := c.nextGroup(buf)
	if len(items) != 1 || items[0].ID != 10 {
		t.Fatal("dst reuse broke the first group")
	}
	_, items2, _, _ := c.nextGroup(buf) // caller may reuse after copying out
	if len(items2) != 1 || items2[0].ID != 20 {
		t.Fatal("dst reuse broke the second group")
	}
}

func TestGroupCursorRandomized(t *testing.T) {
	f := func(seed int64, nGroups uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := diskio.NewDisk(128, 5, time.Millisecond)
		// Ascending keys with random group sizes, as after sorting.
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
		c := newGroupCursor(writeRun(d, 1+rng.Intn(4), keys, nil), 2, 1, 0)
		for i := range wantCodes {
			gc, items, ok, err := c.nextGroup(nil)
			if err != nil || !ok || gc != wantCodes[i] || len(items) != wantSizes[i] {
				return false
			}
		}
		_, _, ok, err := c.nextGroup(nil)
		return !ok && err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
