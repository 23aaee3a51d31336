package pbsm

import (
	"math/rand"
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/jointest"
)

// TestTLSPMatchesRPMResultSet is the central TLSP claim: the class test
// yields precisely the duplicate-free result set of the Reference Point
// Method, across replication-heavy uniform data and Gaussian skew that
// forces repartitioning (the residual reference-point path).
func TestTLSPMatchesRPMResultSet(t *testing.T) {
	cases := []struct {
		name string
		R, S []geom.KPE
	}{
		{"uniform", datagen.Uniform(81, 2000, 0.03), datagen.Uniform(82, 2000, 0.03)},
		{"gaussian", datagen.Gaussian(91, 2000, 0.02), datagen.Gaussian(92, 2000, 0.02)},
	}
	for _, tc := range cases {
		var sawSkip, sawResidual bool
		for _, mem := range []int64{8 << 10, 24 << 10, 512 << 10} {
			rpm, _ := run(t, tc.R, tc.S, Config{Memory: mem, Dup: DupRPM})
			tlsp, st := run(t, tc.R, tc.S, Config{Memory: mem, Dup: DupTLSP})
			jointest.SortPairs(rpm)
			jointest.AssertEqual(t, tlsp, rpm)
			sawSkip = sawSkip || st.TLSPSkipped > 0
			sawResidual = sawResidual || st.TLSPRefTests > 0
			if st.P > 1 && st.NT != st.P {
				t.Errorf("%s mem %d: TLSP tiles must be partitions, NT=%d P=%d", tc.name, mem, st.NT, st.P)
			}
		}
		if !sawSkip {
			t.Errorf("%s: no candidate was ever class-skipped; replication coverage lost", tc.name)
		}
		if tc.name == "gaussian" && !sawResidual {
			t.Error("gaussian: repartitioning never exercised the residual reference-point path")
		}
	}
}

// TestTLSPMatchesSortExactly closes the triangle: all three methods on
// the dup axis agree on the result set.
func TestTLSPMatchesSortExactly(t *testing.T) {
	R := datagen.LARR(1, 1200).KPEs
	S := datagen.LAST(2, 1200).KPEs
	for _, mem := range []int64{4 << 10, 16 << 10, 64 << 10} {
		srt, _ := run(t, R, S, Config{Memory: mem, Dup: DupSort})
		tlsp, _ := run(t, R, S, Config{Memory: mem, Dup: DupTLSP})
		jointest.SortPairs(srt)
		jointest.AssertEqual(t, tlsp, srt)
	}
}

// TestTLSPEmissionOrderAcrossWorkers pins the determinism contract the
// shard layer builds on: a TLSP join emits the exact same sequence at
// every worker count (collector order), not merely the same set.
func TestTLSPEmissionOrderAcrossWorkers(t *testing.T) {
	R := datagen.Uniform(83, 1500, 0.02)
	S := datagen.Uniform(84, 1500, 0.02)
	serial, _ := run(t, R, S, Config{Memory: 12 << 10, Dup: DupTLSP})
	for _, workers := range []int{2, 4, 8} {
		par, _ := run(t, R, S, Config{Memory: 12 << 10, Dup: DupTLSP, Parallel: workers})
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d pairs, serial %d", workers, len(par), len(serial))
		}
		for i := range par {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: emission order diverges at %d: %v vs %v",
					workers, i, par[i], serial[i])
			}
		}
	}
}

// TestTLSPClassComboEquivalence is the property the whole method rests
// on, checked directly against the geometry: for random rectangle pairs
// and every tile holding copies of both, the class-AND test passes
// exactly when the RPM reference point lies in that tile.
func TestTLSPClassComboEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := newTLSPGrid(23) // 5×5, deliberately non-square count rounding up
	randRect := func() geom.Rect {
		x, y := rng.Float64(), rng.Float64()
		return geom.NewRect(x, y, x+rng.Float64()*0.4, y+rng.Float64()*0.4)
	}
	classAt := func(r geom.Rect, tile int) (uint8, bool) {
		var dst []copyDest
		for _, d := range g.copiesOf(r, dst, nil, 0) {
			if d.part == tile {
				return d.class, true
			}
		}
		return 0, false
	}
	for n := 0; n < 5000; n++ {
		r, s := randRect(), randRect()
		if !r.Intersects(s) {
			continue
		}
		x := geom.RefPoint(r, s)
		refTile := g.tileOf(x)
		emitted := 0
		for tile := 0; tile < g.parts; tile++ {
			cr, okR := classAt(r, tile)
			cs, okS := classAt(s, tile)
			if !okR || !okS {
				continue
			}
			pass := cr&cs == 0
			if pass != (tile == refTile) {
				t.Fatalf("tile %d: class test %v, refpoint-in-tile %v (r=%v s=%v ref=%v)",
					tile, pass, tile == refTile, r, s, x)
			}
			if pass {
				emitted++
			}
		}
		if emitted != 1 {
			t.Fatalf("pair emitted by %d tiles, want exactly 1 (r=%v s=%v)", emitted, r, s)
		}
	}
}

// TestTLSPGridShape pins the TLSP grid invariants: tiles are partitions
// (1:1, identity mapping) and the count rounds up to fill the rectangle.
func TestTLSPGridShape(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 16, 23, 100} {
		g := newTLSPGrid(p)
		if g.parts < p {
			t.Errorf("newTLSPGrid(%d): parts %d < requested", p, g.parts)
		}
		if g.parts != g.nx*g.ny {
			t.Errorf("newTLSPGrid(%d): parts %d != nx*ny %d", p, g.parts, g.nx*g.ny)
		}
		for tile := 0; tile < g.parts; tile++ {
			if g.partOf(tile) != tile {
				t.Fatalf("newTLSPGrid(%d): partOf(%d) = %d, want identity", p, tile, g.partOf(tile))
			}
		}
	}
}

// TestTLSPIgnoresCallerClasses guards the unpartitioned path: input KPEs
// arriving with garbage in Class must not lose results when everything
// fits in memory (no replication ever classed them).
func TestTLSPIgnoresCallerClasses(t *testing.T) {
	R := datagen.Uniform(85, 200, 0.05)
	S := datagen.Uniform(86, 200, 0.05)
	for i := range R {
		R[i].Class = 3
	}
	for i := range S {
		S[i].Class = 3
	}
	want := jointest.Naive(R, S)
	got, st := run(t, R, S, Config{Memory: 1 << 30, Dup: DupTLSP})
	if st.P != 1 {
		t.Fatalf("test setup: want P=1, got %d", st.P)
	}
	jointest.AssertEqual(t, got, want)
}

// TestPairExecTLSPMatchesJoin extends the pair-subset contract to TLSP:
// planning, slicing and executing per pair reproduces the single-process
// TLSP join exactly — set AND order — which is what lets the shard layer
// accept TLSP.
func TestPairExecTLSPMatchesJoin(t *testing.T) {
	R := datagen.Uniform(87, 1200, 0.02)
	S := datagen.Uniform(88, 1200, 0.02)
	for _, memory := range []int64{8 << 10, 64 << 10, 4 << 20} {
		serialDisk := diskio.NewDisk(4096, 20, time.Microsecond)
		var want []geom.Pair
		wantStats, err := Join(R, S, Config{Disk: serialDisk, Memory: memory, Dup: DupTLSP}, func(p geom.Pair) {
			want = append(want, p)
		})
		if err != nil {
			t.Fatalf("memory %d: serial join: %v", memory, err)
		}

		cfg := Config{Disk: diskio.NewDisk(4096, 20, time.Microsecond), Memory: memory, Dup: DupTLSP}
		gs := PlanGrid(len(R), len(S), cfg)
		if gs.Parts != wantStats.P {
			t.Fatalf("memory %d: PlanGrid parts = %d, serial P = %d", memory, gs.Parts, wantStats.P)
		}
		if (gs.Parts > 1 || memory >= 4<<20) && !gs.TLSP {
			t.Fatalf("memory %d: planned grid not marked TLSP", memory)
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
		ex.Close()
		if len(got) != len(want) {
			t.Fatalf("memory %d: pair-subset run emitted %d pairs, serial %d", memory, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("memory %d: emission diverges at %d: %v vs %v", memory, i, got[i], want[i])
			}
		}
	}
}

// TestPairExecDupValidation pins the fail-loud matrix: DupSort and
// unknown methods are rejected, and the grid's TLSP-ness must match the
// executing config.
func TestPairExecDupValidation(t *testing.T) {
	disk := diskio.NewDisk(4096, 20, time.Microsecond)
	rpmGrid := GridSpec{NX: 2, NY: 2, Parts: 3}
	tlspGrid := GridSpec{NX: 2, NY: 2, Parts: 4, TLSP: true}
	if _, err := NewPairExec(Config{Disk: disk, Memory: 1 << 20, Dup: DupSort}, rpmGrid); err == nil {
		t.Error("DupSort must be rejected")
	}
	if _, err := NewPairExec(Config{Disk: disk, Memory: 1 << 20, Dup: DupMethod(5)}, rpmGrid); err == nil {
		t.Error("unknown Dup must be rejected")
	}
	if _, err := NewPairExec(Config{Disk: disk, Memory: 1 << 20, Dup: DupTLSP}, rpmGrid); err == nil {
		t.Error("TLSP config over a non-TLSP grid must be rejected")
	}
	if _, err := NewPairExec(Config{Disk: disk, Memory: 1 << 20, Dup: DupRPM}, tlspGrid); err == nil {
		t.Error("RPM config over a TLSP grid must be rejected")
	}
	// A TLSP spec whose tiles are not 1:1 with partitions is invalid.
	if (GridSpec{NX: 3, NY: 3, Parts: 8, TLSP: true}).Valid() {
		t.Error("TLSP spec with parts != nx*ny must be invalid")
	}
	if ex, err := NewPairExec(Config{Disk: disk, Memory: 1 << 20, Dup: DupTLSP}, tlspGrid); err != nil {
		t.Errorf("matched TLSP exec must construct: %v", err)
	} else {
		ex.Close()
	}
}
