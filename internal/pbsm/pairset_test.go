package pbsm

import (
	"errors"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/recfile"
)

// TestPairExecMatchesJoin proves the pair-subset API's core contract:
// planning the grid once with the planner Join uses, deriving each partition's slices from source
// and running every pair through a PairExec in partition order emits
// EXACTLY the pair sequence the single-process Join emits — same set,
// same order — including when pairs recurse through repartitioning.
func TestPairExecMatchesJoin(t *testing.T) {
	R := datagen.Uniform(71, 1200, 0.004)
	S := datagen.Uniform(72, 1200, 0.004)
	// A cluster no table can spread: one tile of the 5 KiB grid holds more
	// than the budget, so its pair repartitions under any plan.
	for i, k := range datagen.Uniform(73, 300, 0.1) {
		r := k.Rect
		k.ID, k.Rect = uint64(5000+i), geom.NewRect(0.3+r.XL/100, 0.3+r.YL/100, 0.3+r.XH/100, 0.3+r.YH/100)
		R, S = append(R, k), append(S, k)
	}
	// Small memory forces several partitions and some repartitioning.
	for _, memory := range []int64{5 << 10, 48 << 10, 4 << 20} {
		serialDisk := diskio.NewDisk(4096, 20, time.Microsecond)
		var want []geom.Pair
		wantStats, err := Join(R, S, Config{Disk: serialDisk, Memory: memory}, func(p geom.Pair) {
			want = append(want, p)
		})
		if err != nil {
			t.Fatalf("memory %d: serial join: %v", memory, err)
		}

		cfg := Config{Disk: diskio.NewDisk(4096, 20, time.Microsecond), Memory: memory}
		gs, err := PlanGridFor(R, S, cfg)
		if err != nil {
			t.Fatalf("memory %d: PlanGridFor: %v", memory, err)
		}
		if gs.Parts != wantStats.P || gs.Parts != PlanGrid(len(R), len(S), cfg).Parts {
			t.Fatalf("memory %d: PlanGridFor parts = %d, PlanGrid %d, serial P = %d",
				memory, gs.Parts, PlanGrid(len(R), len(S), cfg).Parts, wantStats.P)
		}
		parts := make([]int, gs.Parts)
		for i := range parts {
			parts[i] = i
		}
		rsl, err := PartitionSlices(R, gs, parts, nil)
		if err != nil {
			t.Fatalf("memory %d: PartitionSlices(R): %v", memory, err)
		}
		ssl, err := PartitionSlices(S, gs, parts, nil)
		if err != nil {
			t.Fatalf("memory %d: PartitionSlices(S): %v", memory, err)
		}
		ex, err := NewPairExec(cfg, gs)
		if err != nil {
			t.Fatalf("memory %d: NewPairExec: %v", memory, err)
		}
		var got []geom.Pair
		for _, p := range parts {
			if err := ex.RunPair(p, rsl[p], ssl[p], func(pr geom.Pair) {
				got = append(got, pr)
			}); err != nil {
				t.Fatalf("memory %d: RunPair(%d): %v", memory, p, err)
			}
		}
		st := ex.Stats()
		ex.Close()
		if cfg.Disk.NumFiles() != 0 {
			t.Fatalf("memory %d: PairExec leaked %d files", memory, cfg.Disk.NumFiles())
		}
		if len(got) != len(want) {
			t.Fatalf("memory %d: pair-subset run emitted %d pairs, serial %d", memory, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("memory %d: emission diverges at %d: %v vs %v", memory, i, got[i], want[i])
			}
		}
		if st.Results != int64(len(want)) {
			t.Errorf("memory %d: Stats.Results = %d, want %d", memory, st.Results, len(want))
		}
		if memory == 5<<10 && wantStats.Repartitions == 0 {
			t.Error("5KiB case never repartitioned; the test lost its recursion coverage")
		}
		// The executor charges each pair's side writes to partition and
		// each split to repartition, as the full join does.
		const wantPhases = "partition=0/8/0/8/168 repartition=32/80/32/80/2352 join=50/0/56/0/1056"
		if got := phaseIO(st.PhaseIO[:PhaseDup]); memory == 5<<10 && (st.Repartitions != 8 || got != wantPhases) {
			t.Errorf("memory %d: %d repartitions, phase I/O %s; want 8, %s", memory, st.Repartitions, got, wantPhases)
		}
	}
}

// TestScatterCallersAgree pins the single routing loop from its three
// callers: per partition, the partition phase's file read back, the
// PartitionSlices slice and the heal path's re-derived file hold the
// same records in the same order — on a hashed, a hand-written and an
// identity table, for rectangles on tile seams, at coordinates 0 and 1,
// and spanning the domain.
func TestScatterCallersAgree(t *testing.T) {
	ks := datagen.Uniform(73, 300, 0.3)
	for _, r := range []geom.Rect{
		geom.NewRect(0, 0, 1, 1),              // the whole domain
		geom.NewRect(0, 0, 0, 0),              // degenerate at the origin
		geom.NewRect(1, 1, 1, 1),              // degenerate at the far corner
		geom.NewRect(0.25, 0.25, 0.5, 0.5),    // all four edges on 4×4 seams
		geom.NewRect(0.5, 0, 0.5, 1),          // zero-width, on a seam, full height
		geom.NewRect(0, 1.0/3, 1, 2.0/3),      // edges on the 3-row seams, full width
		geom.NewRect(0.75, 0.75, 1, 1),        // seam to far boundary
		geom.NewRect(0.1, 0.24999, 0.2, 0.25), // top edge exactly on a seam
	} {
		ks = append(ks, geom.KPE{ID: uint64(1000 + len(ks)), Rect: r})
	}
	for _, gs := range []GridSpec{
		{NX: 4, NY: 4, Parts: 5, Assign: hashTiles(16, 5), Rows: 1},
		{NX: 4, NY: 4, Parts: 5, Assign: []int32{4, 4, 4, 4, 0, 1, 1, 0, 0, 1, 1, 0, 3, 3, 3, 3}, Rows: 1}, // partition 2 empty
		{NX: 4, NY: 3, Parts: 12, Assign: []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, Rows: 1},          // tiles are partitions
	} {
		j := newJoiner(Config{Disk: newDisk(), Memory: 1 << 20})
		j.grid = gs.grid()
		files, copies, err := j.partitionInput(ks)
		if err != nil {
			t.Fatalf("%v: partitionInput: %v", gs, err)
		}
		parts := make([]int, gs.Parts)
		for i := range parts {
			parts[i] = i
		}
		slices, err := PartitionSlices(ks, gs, parts, nil)
		if err != nil {
			t.Fatalf("%v: PartitionSlices: %v", gs, err)
		}
		var total int64
		for _, p := range parts {
			total += int64(len(slices[p]))
			healed, err := j.rederive(ks, p)
			if err != nil {
				t.Fatalf("%v: rederive(%d): %v", gs, p, err)
			}
			for name, f := range map[string]*diskio.File{"partition file": files[p], "rederived file": healed} {
				got, err := recfile.ReadAllKPEs(nil, f, 2)
				if err != nil {
					t.Fatalf("%v: reading %s %d: %v", gs, name, p, err)
				}
				if len(got) != len(slices[p]) {
					t.Fatalf("%v: %s %d holds %d records, slice %d", gs, name, p, len(got), len(slices[p]))
				}
				for i := range got {
					if got[i] != slices[p][i] {
						t.Fatalf("%v: %s %d record %d = %+v, slice has %+v", gs, name, p, i, got[i], slices[p][i])
					}
				}
			}
		}
		if copies != total || total <= int64(len(ks)) {
			t.Fatalf("%v: %d copies written, slices hold %d, input %d (want replication)", gs, copies, total, len(ks))
		}
		j.reg.Sweep()
	}
}

// TestPartitionSlicesAllocatesOnce pins the counted scatter: one call
// allocates its copies once, in one flat buffer, plus bookkeeping that
// grows with P and not with the input; and every partition's slice is
// cap-clipped, so an append to one partition cannot overwrite the first
// record of the partition laid out after it.
func TestPartitionSlicesAllocatesOnce(t *testing.T) {
	ks := datagen.Uniform(74, 20000, 0.02)
	gs := GridSpec{NX: 16, NY: 16, Parts: 7, Assign: hashTiles(256, 7), Rows: 1}
	all := []int{0, 1, 2, 3, 4, 5, 6}
	for _, parts := range [][]int{all, {1, 3, 4, 6}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sl, err := PartitionSlices(ks, gs, parts, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("parts %v: %v", parts, err)
		}
		var copies int
		for _, p := range parts {
			copies += len(sl[p])
			if cap(sl[p]) != len(sl[p]) {
				t.Errorf("parts %v: partition %d has len %d, cap %d: an append would spill into its neighbour", parts, p, len(sl[p]), cap(sl[p]))
			}
		}
		if copies <= len(ks)*len(parts)/len(all) {
			t.Fatalf("parts %v: %d copies of %d records, want replication", parts, copies, len(ks))
		}
		// Slack: the runtime rounds a large object up to whole 8 KiB pages,
		// and the map, counters and scatter state take O(P).
		limit := uint64(copies)*uint64(unsafe.Sizeof(geom.KPE{})) + 8192 + 4096 + 256*uint64(gs.Parts)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("parts %v: PartitionSlices allocated %d B for %d copies, limit %d B", parts, got, copies, limit)
		}
		// Partitions are laid out in index order: appending to parts[0]
		// must leave parts[1]'s first record where it was.
		p, q := parts[0], parts[1]
		if len(sl[p]) == 0 || len(sl[q]) == 0 {
			t.Fatalf("parts %v: partitions %d and %d must both hold records", parts, p, q)
		}
		first := sl[q][0]
		sl[p] = append(sl[p], geom.KPE{ID: 1 << 40})
		if sl[q][0] != first {
			t.Fatalf("parts %v: appending to partition %d overwrote partition %d's first record", parts, p, q)
		}
	}
}

// TestPairExecRejectsDupSort pins the RPM-only restriction: without the
// Reference Point Method per-pair output is not globally duplicate-free
// and cannot be sharded.
func TestPairExecRejectsDupSort(t *testing.T) {
	cfg := Config{Disk: diskio.NewDisk(4096, 20, time.Microsecond), Memory: 1 << 20, Dup: DupSort}
	if _, err := NewPairExec(cfg, GridSpec{NX: 1, NY: 1, Parts: 1}); err == nil {
		t.Fatal("NewPairExec accepted DupSort")
	}
}

// TestPairExecDupValidation pins the fail-loud matrix: DupSort and
// unknown methods are rejected, and so is a grid of several partitions
// without its table or without its stripe rows; RPM over a planned grid
// constructs.
func TestPairExecDupValidation(t *testing.T) {
	disk := diskio.NewDisk(4096, 20, time.Microsecond)
	rpmGrid := GridSpec{NX: 2, NY: 2, Parts: 3, Assign: hashTiles(4, 3), Rows: 2}
	if _, err := NewPairExec(Config{Disk: disk, Memory: 1 << 20, Dup: DupSort}, rpmGrid); err == nil {
		t.Error("DupSort must be rejected")
	}
	if _, err := NewPairExec(Config{Disk: disk, Memory: 1 << 20, Dup: DupMethod(5)}, rpmGrid); err == nil {
		t.Error("unknown Dup must be rejected")
	}
	if _, err := NewPairExec(Config{Disk: disk, Memory: 1 << 20}, GridSpec{NX: 2, NY: 2, Parts: 4}); err == nil {
		t.Error("a grid of several partitions without its table must be rejected")
	}
	rowless := rpmGrid
	rowless.Rows = 0
	var je *joinerr.JoinError
	if _, err := NewPairExec(Config{Disk: disk, Memory: 1 << 20}, rowless); !errors.As(err, &je) || je.Phase != "config" {
		t.Errorf("a grid of several partitions without its stripe rows: got %v, want a config error", err)
	}
	if ex, err := NewPairExec(Config{Disk: disk, Memory: 1 << 20, Dup: DupRPM}, rpmGrid); err != nil {
		t.Errorf("RPM exec over a planned grid must construct: %v", err)
	} else {
		ex.Close()
	}
}

func TestReplicationRateGrowsWithGridResolution(t *testing.T) {
	ks := datagen.LARR(6, 3000).KPEs
	coarse := GridSpec{NX: 4, NY: 4}.ReplicationRate(ks)
	fine := GridSpec{NX: 64, NY: 64}.ReplicationRate(ks)
	if coarse < 1 || fine < coarse {
		t.Fatalf("replication must grow with resolution: %g -> %g", coarse, fine)
	}
	if (GridSpec{NX: 8, NY: 8}).ReplicationRate(nil) != 1 {
		t.Fatal("empty sample must estimate rate 1")
	}
}

func TestReplicationRateExactOnKnownRect(t *testing.T) {
	// One rect covering exactly 2x3 tiles of a 10x10 grid.
	ks := []geom.KPE{{Rect: geom.NewRect(0.05, 0.05, 0.15, 0.25)}}
	if r := (GridSpec{NX: 10, NY: 10}).ReplicationRate(ks); r != 6 {
		t.Fatalf("rate = %g, want 6", r)
	}
}
