package shj

import (
	"slices"
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/jointest"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/phase"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/stripe"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
)

func newDisk() *diskio.Disk { return diskio.NewDisk(1024, 10, time.Millisecond) }

func run(t *testing.T, R, S []geom.KPE, cfg Config) ([]geom.Pair, Stats) {
	t.Helper()
	if cfg.Disk == nil {
		cfg.Disk = newDisk()
	}
	var got []geom.Pair
	st, err := Join(R, S, cfg, func(p geom.Pair) { got = append(got, p) })
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	return got, st
}

func TestConfigErrors(t *testing.T) {
	if _, err := Join(nil, nil, Config{Memory: 1}, nil); err == nil {
		t.Error("nil disk must error")
	}
	if _, err := Join(nil, nil, Config{Disk: newDisk()}, nil); err == nil {
		t.Error("zero memory must error")
	}
}

func TestNoDuplicatesByConstruction(t *testing.T) {
	// Each build rectangle lives in exactly one bucket, so no dedup
	// machinery exists — verify none is needed.
	R := datagen.LARR(3, 1500).KPEs
	S := datagen.LAST(4, 1500).KPEs
	got, st := run(t, R, S, Config{Memory: 8 << 10})
	jointest.AssertEqual(t, got, jointest.Naive(R, S))
	if st.Buckets < 2 {
		t.Fatalf("expected several buckets at 8KB, got %d", st.Buckets)
	}
}

func TestProbeSideReplicated(t *testing.T) {
	R := datagen.LARR(5, 2000).KPEs
	S := datagen.LAST(6, 2000).KPEs
	_, st := run(t, R, S, Config{Memory: 8 << 10})
	if st.CopiesS == 0 {
		t.Fatal("no probe copies written")
	}
	// Every S rectangle is either replicated into ≥1 bucket or counted as
	// an orphan; overlapping bucket extents make the sum exceed |S|.
	if st.CopiesS+st.Orphans < int64(len(S)) {
		t.Fatalf("copies (%d) + orphans (%d) below |S| (%d)", st.CopiesS, st.Orphans, len(S))
	}
}

func TestOrphansCannotJoin(t *testing.T) {
	// An S rectangle far away from every R rectangle overlaps no bucket
	// extent and must be dropped without affecting correctness.
	R := []geom.KPE{
		{ID: 1, Rect: geom.NewRect(0.1, 0.1, 0.2, 0.2)},
		{ID: 2, Rect: geom.NewRect(0.15, 0.15, 0.25, 0.25)},
	}
	S := []geom.KPE{
		{ID: 10, Rect: geom.NewRect(0.12, 0.12, 0.13, 0.13)}, // joins
		{ID: 11, Rect: geom.NewRect(0.9, 0.9, 0.95, 0.95)},   // orphan
	}
	got, st := run(t, R, S, Config{Memory: 1 << 20})
	jointest.AssertEqual(t, got, jointest.Naive(R, S))
	if st.Orphans != 1 {
		t.Fatalf("Orphans = %d, want 1", st.Orphans)
	}
}

func TestPhaseAccounting(t *testing.T) {
	R := datagen.LARR(7, 1500).KPEs
	S := datagen.LAST(8, 1500).KPEs
	d := newDisk()
	before := d.Stats()
	_, st := run(t, R, S, Config{Disk: d, Memory: 8 << 10})
	delta := d.Stats().Sub(before)
	if st.TotalIO().CostUnits != delta.CostUnits {
		t.Fatalf("phase I/O %.0f != disk delta %.0f", st.TotalIO().CostUnits, delta.CostUnits)
	}
	if st.PhaseIO[PhaseBuild].PagesWritten == 0 {
		t.Fatal("build phase must write buckets")
	}
	if st.PhaseIO[PhaseJoin].PagesRead == 0 {
		t.Fatal("join phase must read buckets")
	}
}

func TestEmptyInputs(t *testing.T) {
	R := datagen.Uniform(9, 100, 0.05)
	for _, pair := range [][2][]geom.KPE{{nil, R}, {R, nil}, {nil, nil}} {
		got, _ := run(t, pair[0], pair[1], Config{Memory: 8 << 10})
		if len(got) != 0 {
			t.Fatal("empty input must give empty join")
		}
	}
}

// BucketExtents replays the build phase's assignment over file-less
// buckets and returns the final extents of the seeded ones.
func BucketExtents(R []geom.KPE, n int) []geom.Rect {
	if n < 1 || len(R) == 0 {
		return nil
	}
	buckets := seedBuckets(R, n)
	for i := range R {
		b := chooseBucket(buckets, R[i].Rect)
		b.extent = b.extent.Union(R[i].Rect)
	}
	var out []geom.Rect
	for _, b := range buckets {
		if b.seeded {
			out = append(out, b.extent)
		}
	}
	return out
}

func TestBucketExtentsCoverBuildSide(t *testing.T) {
	R := datagen.LAST(10, 1000).KPEs
	exts := BucketExtents(R, 8)
	if len(exts) == 0 {
		t.Fatal("no extents")
	}
	for _, k := range R {
		covered := false
		for _, e := range exts {
			if e.ContainsRect(k.Rect) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("rect %v not covered by any bucket extent", k.Rect)
		}
	}
	if BucketExtents(nil, 4) != nil || BucketExtents(R, 0) != nil {
		t.Fatal("degenerate inputs must return nil")
	}
}

// TestBuildPhaseExtentsHoldTheirRecords: after the build phase every
// bucket's extent contains each R record written to its file — the
// condition under which the probe phase sends every partner. The
// minimized input drives every enlargement to NaN (Inf − Inf) at its
// third record, so that record goes to the fallback bucket, which must
// keep the extent of the records already in it.
func TestBuildPhaseExtentsHoldTheirRecords(t *testing.T) {
	nan := []geom.KPE{
		{ID: 1, Rect: geom.NewRect(4194304, 0.5, 1e9, 1000)},
		{ID: 2, Rect: geom.NewRect(0.5, 0.732706, 0.823825, 1e300)},
		{ID: 3, Rect: geom.NewRect(-1e300, -1e300, 0.62529, 0.699858)},
	}
	wide := append(datagen.LAST(10, 500).KPEs, nan...)
	for _, c := range []struct {
		name string
		R    []geom.KPE
		n    int
	}{
		{"nan/1", nan, 1},
		{"nan/2", nan, 2},
		{"last+nan/8", wide, 8},
	} {
		cfg := Config{Disk: newDisk(), Memory: 1 << 20}
		var st Stats
		led := phase.New(cfg.Disk, nil, st.PhaseCPU[:], st.PhaseIO[:], nil, nil)
		rg := cfg.Disk.NewRegistry()
		buckets, err := buildPhase(c.R, c.n, cfg, rg, iocost.DeviceOf(cfg.Disk, 0), led)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		held := 0
		for i, b := range buckets {
			ks, err := recfile.ReadAllKPEs(nil, b.fR, 2)
			if err != nil {
				t.Fatalf("%s: bucket %d: %v", c.name, i, err)
			}
			for _, k := range ks {
				if !b.extent.ContainsRect(k.Rect) {
					t.Fatalf("%s: bucket %d's extent %v does not hold its record %v", c.name, i, b.extent, k.Rect)
				}
			}
			held += len(ks)
		}
		if held != len(c.R) {
			t.Fatalf("%s: the buckets hold %d records, want %d", c.name, held, len(c.R))
		}
		rg.Sweep()
	}
}

// TestBucketsAreStriped: a bucket larger than stripe.Records is swept in
// stripes over its own y-extent, so SHJ tests no more candidates than
// PBSM's one-partition join of the same input, whose stripes hold about
// stripe.Records records each — the density PBSM cuts every pair to.
func TestBucketsAreStriped(t *testing.T) {
	R := datagen.LARR(1, 10000).KPEs
	S := datagen.LAST(2, 10000).KPEs
	mem := int64(len(R)+len(S)) * geom.KPESize / 2
	rec := trace.New()
	root := rec.Begin("join:shj")
	got, st := run(t, R, S, Config{Memory: mem, Trace: root})
	root.End()
	jointest.AssertEqual(t, got, jointest.Naive(R, S))
	buckets, striped := 0, 0
	for _, sp := range rec.Spans() {
		if sp.Name != "bucket" {
			continue
		}
		buckets++
		i := slices.IndexFunc(sp.Attrs, func(a trace.Attr) bool { return a.Key == "stripes" })
		if i < 0 {
			t.Fatalf("bucket span over %d records carries attrs %v, no stripe count", sp.Records, sp.Attrs)
		}
		if sp.Records > stripe.Records && sp.Attrs[i].Val < 2 {
			t.Fatalf("bucket of %d records swept as %d stripe", sp.Records, sp.Attrs[i].Val)
		}
		if sp.Attrs[i].Val > 1 {
			striped++
		}
	}
	if buckets != st.Buckets || striped == 0 {
		t.Fatalf("%d bucket spans for %d buckets, %d of them striped", buckets, st.Buckets, striped)
	}
	pst, err := pbsm.Join(R, S, pbsm.Config{Disk: newDisk(), Memory: 4 * mem}, func(geom.Pair) {})
	if err != nil {
		t.Fatal(err)
	}
	if pst.P != 1 {
		t.Fatalf("PBSM's reference join has P = %d, want 1", pst.P)
	}
	if st.Tests > pst.Tests {
		t.Fatalf("SHJ ran %d sweep tests, PBSM's one-partition join %d on the same input", st.Tests, pst.Tests)
	}
}

// TestOverflowBucketTrimsSlot: SHJ's budget reaches the kernel's slots,
// so a bucket over it hands the buffers it grew back, and a bucket within
// it leaves them to the next one.
func TestOverflowBucketTrimsSlot(t *testing.T) {
	R := datagen.LARR(3, 3000).KPEs
	S := datagen.LAST(4, 3000).KPEs
	d := newDisk()
	file := func(ks []geom.KPE) *diskio.File {
		f := d.Create("")
		w := recfile.NewKPEWriter(f, 2)
		for _, k := range ks {
			if err := w.Write(k); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	b := &bucket{extent: R[0].Rect, nR: len(R), n: int64(len(R) + len(S)), fR: file(R), fS: file(S)}
	for _, k := range R {
		b.extent = b.extent.Union(k.Rect)
	}
	want := jointest.Naive(R, S)
	for _, c := range []struct {
		mem     int64
		trimmed bool
	}{
		{b.n * geom.KPESize, false},
		{b.n * geom.KPESize / 8, true},
	} {
		sl := stripe.NewExec(sweep.ListKind, c.mem, sched.Options{}).Slot()
		var got []geom.Pair
		if err := joinBucket(sl, func(ps []geom.Pair) { got = append(got, ps...) }, b, nil, 2, nil); err != nil {
			t.Fatal(err)
		}
		jointest.AssertEqual(t, got, want)
		if (sl.LoadR == nil) != c.trimmed || (sl.LoadS == nil) != c.trimmed {
			t.Fatalf("memory %d: load buffers of cap %d and %d after the bucket, want trimmed = %v",
				c.mem, cap(sl.LoadR), cap(sl.LoadS), c.trimmed)
		}
	}
}
