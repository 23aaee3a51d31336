package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/jointest"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/s3j"
	"spatialjoin/internal/sfc"
	"spatialjoin/internal/shard"
	"spatialjoin/internal/shj"
	"spatialjoin/internal/sssj"
	"spatialjoin/internal/sweep"
)

// TestMain lets the coordinator re-execute this test binary as a shard
// worker for the lattice's pipe arms and core.Join with Shards > 1. It
// lives in package core_test: package core's own tests cannot import
// shard, which imports core.
func TestMain(m *testing.M) {
	shard.ServeIfWorker()
	os.Exit(m.Run())
}

// TestUnknownAlgorithmRefusedAtEveryEntryPoint calls core.Join and each
// method's own entry point, as the benchmark and embedders may, with an
// Algorithm no sweep.New accepts. Each must refuse it with a config joinerr naming
// the valid kinds, before any worker starts: a shard join that spawned
// workers would see each refuse the job, absorb the shard and panic in
// sweep.New on a coordinator goroutine.
func TestUnknownAlgorithmRefusedAtEveryEntryPoint(t *testing.T) {
	R, S := datagen.Uniform(1, 40, 0.05), datagen.Uniform(2, 40, 0.05)
	const tri, memory = sweep.Kind("tri"), 1 << 20
	disk := func() *diskio.Disk { return diskio.NewDisk(4096, 20, time.Microsecond) }
	emit := func(geom.Pair) {}
	var spawns int
	reg := metrics.New()
	for _, entry := range []struct {
		name, method string
		join         func() error
	}{
		{"core.Join", "core", func() error {
			_, err := core.Join(R, S, core.Config{Memory: memory, Algorithm: tri}, emit)
			return err
		}},
		{"core.Join/shards=2", "core", func() error {
			_, err := core.Join(R, S, core.Config{Memory: memory, Algorithm: tri, Shards: 2, Metrics: reg}, emit)
			return err
		}},
		{"pbsm.Join", "pbsm", func() error {
			_, err := pbsm.Join(R, S, pbsm.Config{Disk: disk(), Memory: memory, Algorithm: tri}, emit)
			return err
		}},
		{"pbsm.NewPairExec", "pbsm", func() error {
			cfg := pbsm.Config{Disk: disk(), Memory: memory, Algorithm: tri}
			_, err := pbsm.NewPairExec(cfg, pbsm.PlanGrid(len(R), len(S), cfg))
			return err
		}},
		{"s3j.Join", "s3j", func() error {
			_, err := s3j.Join(R, S, s3j.Config{Disk: disk(), Memory: memory, Algorithm: tri}, emit)
			return err
		}},
		{"shj.Join", "shj", func() error {
			_, err := shj.Join(R, S, shj.Config{Disk: disk(), Memory: memory, Algorithm: tri}, emit)
			return err
		}},
		{"sssj.Join", "sssj", func() error {
			_, err := sssj.Join(R, S, sssj.Config{Disk: disk(), Memory: memory, Algorithm: tri}, emit)
			return err
		}},
		{"shard.Join", "shard", func() error {
			res, err := shard.Join(R, S, shard.Config{Shards: 2, Memory: memory, Algorithm: tri}, emit)
			spawns = res.Stats.Spawns
			return err
		}},
	} {
		err := entry.join()
		var je *joinerr.JoinError
		if !errors.As(err, &je) || je.Method != entry.method || je.Phase != "config" || !strings.Contains(err.Error(), `"trie"`) {
			t.Errorf("%s: got %v, want a %s config error naming the valid kinds", entry.name, err, entry.method)
		}
	}
	if spawns != 0 {
		t.Errorf("shard.Join spawned %d workers for a config it refuses", spawns)
	}
	if n := reg.Snapshot().Value("shard.spawns"); n != 0 {
		t.Errorf("core.Join spawned %v workers for a config it refuses", n)
	}
}

// latticeInput is one pair of relations and the budgets it runs at.
type latticeInput struct {
	name string
	R, S []geom.KPE
	// resident runs the input at the resident budget only: the minimized
	// regressions hold a record or two a side, and a quarter of that
	// drives PBSM's repartitioning to its recursion cap.
	resident bool
	// tiles is PBSMTilesPerPartition for every PBSM row; zero is the
	// package default.
	tiles int
}

// latticeRows is every join configuration of the lattice: PBSM's two
// duplicate methods under every internal algorithm on the balanced
// tile table and under the sweeps on the paper's hash plan; S³J's two
// variants on both curves, each internal algorithm at its own level
// count; SSSJ's two statuses; SHJ under every internal algorithm.
func latticeRows() []core.Config {
	var rows []core.Config
	for _, hash := range []bool{false, true} {
		for _, dup := range []pbsm.DupMethod{pbsm.DupRPM, pbsm.DupSort} {
			for _, alg := range []sweep.Kind{sweep.NestedLoopsKind, sweep.ListKind, sweep.TrieKind} {
				if hash && alg == sweep.NestedLoopsKind {
					continue
				}
				rows = append(rows, core.Config{Method: core.PBSM, PBSMDup: dup, PBSMHashTiles: hash, Algorithm: alg})
			}
		}
	}
	levels := map[sweep.Kind]int{sweep.NestedLoopsKind: 0, sweep.ListKind: 3, sweep.TrieKind: 6}
	for _, mode := range []s3j.Mode{s3j.ModeOriginal, s3j.ModeReplicate} {
		for _, curve := range []sfc.Curve{sfc.Peano, sfc.Hilbert} {
			for _, alg := range []sweep.Kind{sweep.NestedLoopsKind, sweep.ListKind, sweep.TrieKind} {
				rows = append(rows, core.Config{Method: core.S3J, S3JMode: mode, Curve: curve, Algorithm: alg, S3JLevels: levels[alg]})
			}
		}
	}
	for _, alg := range []sweep.Kind{sweep.ListKind, sweep.TrieKind} {
		rows = append(rows, core.Config{Method: core.SSSJ, Algorithm: alg})
	}
	for _, alg := range []sweep.Kind{sweep.NestedLoopsKind, sweep.ListKind, sweep.TrieKind} {
		rows = append(rows, core.Config{Method: core.SHJ, Algorithm: alg})
	}
	return rows
}

func rowName(c core.Config) string {
	switch c.Method {
	case core.PBSM:
		plan := "lpt"
		if c.PBSMHashTiles {
			plan = "hash"
		}
		return fmt.Sprintf("pbsm/%s/%s/%s", plan, c.PBSMDup, c.Algorithm)
	case core.S3J:
		return fmt.Sprintf("s3j/%s/%s/%s/L%d", c.S3JMode, c.Curve, c.Algorithm, c.S3JLevels)
	default:
		return fmt.Sprintf("%s/%s", c.Method, c.Algorithm)
	}
}

func kpes(firstID uint64, rs ...geom.Rect) []geom.KPE {
	ks := make([]geom.KPE, len(rs))
	for i, r := range rs {
		ks[i] = geom.KPE{ID: firstID + uint64(i), Rect: r}
	}
	return ks
}

// outOfDomain are rectangles core.Join admits though they leave the unit
// square: coordinates of ±1e300, and rectangles on both sides of 2²²,
// where a level-10 cell index v·2^10 no longer fits a uint32.
var outOfDomain = []geom.Rect{
	geom.NewRect(-1e300, -1e300, 1e300, 1e300),
	geom.NewRect(1e300, 1e300, 1e300, 1e300),
	geom.NewRect(-1e300, 0.4, -1e300, 0.6),
	geom.NewRect(0.4, -1e300, 0.6, 1e300),
	geom.NewRect(0.99, 0.99, 1e19, 2),
	geom.NewRect(4194303.9999, 0.5, 4194304, 0.5),
	geom.NewRect(4194304, 0.25, 4194305, 0.75),
	geom.NewRect(4194303, 0.375, 4194303.5, 0.5),
}

// seamInputs draws n narrow rectangles: each edge snaps to a seam k/8
// with probability 1/3 (low edge) or 1/3 (high edge), so that pairs touch
// along the seams of every grid whose side is a power of two up to 8 —
// tile grids, quadtree levels and stripe rows; one in eight is zero-width
// on an axis. The out-of-domain rectangles follow.
func seamInputs(seed int64, n int, firstID uint64) []geom.KPE {
	rng := rand.New(rand.NewSource(seed))
	axis := func() (lo, hi float64) {
		w := 0.04 * rng.Float64()
		if rng.Intn(8) == 0 {
			w = 0
		}
		seam := float64(rng.Intn(9)) / 8
		switch rng.Intn(3) {
		case 0:
			lo = seam
		case 1:
			lo = seam - w
		default:
			lo = rng.Float64()
		}
		return lo, lo + w
	}
	ks := make([]geom.KPE, 0, n+len(outOfDomain))
	for range n {
		xl, xh := axis()
		yl, yh := axis()
		ks = append(ks, geom.KPE{Rect: geom.NewRect(xl, yl, xh, yh)})
	}
	ks = append(ks, kpes(0, outOfDomain...)...)
	for i := range ks {
		ks[i].ID = firstID + uint64(i)
	}
	return ks
}

// zeroEdges draws n rectangles whose left and right edges come from ±0,
// ±subnormals and the smallest normal, so that many left edges tie as
// floats while geom.OrderedKey tells −0 from +0, and many rectangles
// touch at zero.
func zeroEdges(seed int64, n int, firstID uint64) []geom.KPE {
	edges := []float64{math.Copysign(0, -1), 0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308}
	rng := rand.New(rand.NewSource(seed))
	ks := make([]geom.KPE, n)
	for i := range ks {
		xl, xh := edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]
		if xh < xl {
			xh = xl
		}
		if rng.Intn(4) == 0 {
			xh = xl + rng.Float64()*0.01
		}
		yl := rng.Float64()
		ks[i] = geom.KPE{ID: firstID + uint64(i), Rect: geom.Rect{XL: xl, YL: yl, XH: xh, YH: min(1, yl+rng.Float64()*0.2)}}
	}
	return ks
}

// borders draws n rectangles with an edge at exactly 0 or 1 on each
// axis, points at the four corners and whole-domain rectangles, over
// uniform filler.
func borders(seed int64, n int, firstID uint64) []geom.KPE {
	rng := rand.New(rand.NewSource(seed))
	rs := []geom.Rect{
		geom.NewRect(0, 0, 1, 1), geom.NewRect(0, 0, 1, 1),
		geom.NewRect(0, 0, 0, 0), geom.NewRect(1, 1, 1, 1), geom.NewRect(0, 1, 0, 1), geom.NewRect(1, 0, 1, 0),
		geom.NewRect(0, 0, 0, 1), geom.NewRect(1, 0, 1, 1), geom.NewRect(0, 0, 1, 0), geom.NewRect(0, 1, 1, 1),
	}
	edge := func() (lo, hi float64) {
		w := 0.05 * rng.Float64()
		switch rng.Intn(3) {
		case 0:
			return 0, w
		case 1:
			return 1 - w, 1
		}
		lo = rng.Float64() * (1 - w)
		return lo, lo + w
	}
	for len(rs) < n {
		xl, xh := edge()
		yl, yh := edge()
		rs = append(rs, geom.NewRect(xl, yl, xh, yh))
	}
	return kpes(firstID, rs...)
}

// identical puts a block of hot identical rectangles among n uniform
// ones: rectangles no partitioning, stripe or level can split apart.
func identical(seed int64, n, hot int, r geom.Rect, firstID uint64) []geom.KPE {
	ks := datagen.Uniform(seed, n, 0.02)
	for range hot {
		ks = append(ks, geom.KPE{Rect: r})
	}
	for i := range ks {
		ks[i].ID = firstID + uint64(i)
	}
	return ks
}

// randomFamily is the seeded random geometry that stood in the methods'
// property tests: sizes of 10 to 129 a side, extents e²·0.4 clamped to
// the unit square, and a tile count per partition of 1 to 8.
func randomFamily(members int) []latticeInput {
	var ins []latticeInput
	for seed := int64(1); seed <= int64(members); seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(120)
		mk := func(firstID uint64) []geom.KPE {
			ks := make([]geom.KPE, n)
			for i := range ks {
				cx, cy, e := rng.Float64(), rng.Float64(), rng.Float64()
				ks[i] = geom.KPE{ID: firstID + uint64(i), Rect: geom.NewRect(cx, cy, cx+e*e*0.4, cy+e*e*0.4).ClampUnit()}
			}
			return ks
		}
		ins = append(ins, latticeInput{name: fmt.Sprintf("random-%d", seed), R: mk(1), S: mk(1 << 20), tiles: 1 + rng.Intn(8)})
	}
	return ins
}

// latticeInputs is the adversarial geometry every row runs on.
func latticeInputs() []latticeInput {
	ins := []latticeInput{
		// Minimized regressions, each of which once lost pairs: a pair
		// touching along the root seam y = 0.5, which a closed-cell
		// containment test puts in disjoint quadtree subtrees; coordinates
		// past 2²², whose level-10 index leaves the uint32 range; and
		// build extents spanning ±1e300, where every SHJ bucket
		// enlargement is NaN.
		{name: "touch-on-seam", R: kpes(1, geom.NewRect(0, 0.5, 0.3, 0.8)), S: kpes(1, geom.NewRect(0, 0.3, 0.1, 0.5)), resident: true},
		{name: "past-uint32", R: kpes(1, geom.NewRect(4194303.9999, 0.5, 4194304, 0.5)), S: kpes(1, geom.NewRect(4194304, 0.5, 4194304, 0.5)), resident: true},
		{name: "nan-enlargement", R: kpes(1,
			geom.NewRect(4194304, 0.5, 1e9, 1000),
			geom.NewRect(0.5, 0.732706, 0.823825, 1e300),
			geom.NewRect(-1e300, -1e300, 0.62529, 0.699858)),
			S: kpes(1, geom.NewRect(-1e300, 0.972794, 0.5, 4194304)), resident: true},
		// More than stripe.Records records: K = 2 stripe rows at P = 1,
		// their seam y = 1/2 one of the k/8 the edges snap to.
		{name: "stripe-seams", R: seamInputs(9, 1600, 1), S: seamInputs(10, 1600, 1<<20)},
		{name: "zero-edges", R: zeroEdges(3, 400, 1), S: zeroEdges(4, 400, 1<<20)},
		{name: "borders", R: borders(5, 300, 1), S: borders(6, 300, 1<<20)},
		// The hot block straddles the stripe seam y = 1/2 of K = 2.
		{name: "identical", R: identical(7, 1500, 300, geom.NewRect(0.40, 0.49, 0.42, 0.51), 1),
			S: identical(8, 1400, 100, geom.NewRect(0.41, 0.48, 0.43, 0.52), 1<<20)},
		{name: "empty-R", S: datagen.Uniform(6, 50, 0.05)},
		{name: "empty-S", R: datagen.Uniform(6, 50, 0.05)},
		{name: "empty-both"},
		{name: "clustered", R: datagen.LARR(7, 800).KPEs, S: datagen.LAST(8, 800).KPEs},
	}
	self := datagen.Uniform(3, 400, 0.03)
	ins = append(ins, latticeInput{name: "self", R: self, S: self})
	for seed := int64(1); seed <= 3; seed++ {
		ins = append(ins, latticeInput{name: fmt.Sprintf("seams-%d", seed), R: seamInputs(2*seed, 150, 1), S: seamInputs(2*seed+1, 150, 1<<20)})
	}
	return append(ins, randomFamily(8)...)
}

// budget is a memory budget of the lattice and the name its runs carry.
type budget struct {
	name string
	mem  int64
}

// latticeBudgets are the budgets of cfg on in: a resident one, a
// quarter of the input, and for the methods that sort or hash whole
// relations one small enough to force merge passes.
func latticeBudgets(in latticeInput, cfg core.Config) []budget {
	size := int64(len(in.R)+len(in.S)) * geom.KPESize
	bs := []budget{{"resident", max(4*size, 64<<10)}}
	if in.resident {
		return bs
	}
	bs = append(bs, budget{"quarter", max(size/4, 1)})
	if cfg.Method != core.PBSM {
		bs = append(bs, budget{"merge", max(size/16, 1)})
	}
	return bs
}

// loopbackWorkers serves n in-process resident workers on loopback
// listeners and returns their addresses; the listeners close with t.
func loopbackWorkers(t *testing.T, n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		go func() { _ = shard.ServeWorker(ln) }()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// methodTests is the candidate-test count of whichever method ran.
func methodTests(res core.Result) int64 {
	switch {
	case res.PBSMStats != nil:
		return res.PBSMStats.Tests
	case res.S3JStats != nil:
		return res.S3JStats.Tests
	case res.SSSJStats != nil:
		return res.SSSJStats.Tests
	default:
		return res.SHJStats.Tests
	}
}

// TestLattice is the exactly-once contract of the paper — RPM for PBSM,
// the modified RPM for S³J — over the whole lattice: every input ×
// every row × every budget at one and three workers, and PBSM+RPM at
// the quarter budget through the shard fleet over pipes at two and
// three shards and over TCP to two resident workers. Each run must
// deliver jointest.Naive's pairs, each exactly once, and count them in
// its Results. At three workers the emission sequence, the
// candidate-test count and the simulated I/O must be those of one
// worker, and through the fleet the emission sequence must be.
func TestLattice(t *testing.T) {
	addrs := loopbackWorkers(t, 2)
	for _, in := range latticeInputs() {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			want := jointest.Naive(in.R, in.S)
			if len(want) == 0 && len(in.R) > 0 && len(in.S) > 0 {
				t.Fatal("input produced no results; every comparison on it is vacuous")
			}
			// S³J's test count is the curve's business no more than its
			// result set is (§4.4.2): each Hilbert row must count what its
			// Peano twin counted.
			peanoTests := map[string]int64{}
			for _, row := range latticeRows() {
				for _, b := range latticeBudgets(in, row) {
					cfg := row
					cfg.Memory, cfg.PBSMTilesPerPartition = b.mem, in.tiles
					t.Run(rowName(cfg)+"/"+b.name, func(t *testing.T) {
						var serial []geom.Pair
						var first core.Result
						for _, workers := range []int{1, 3} {
							cfg.Parallel = workers
							got, res, err := core.Collect(in.R, in.S, cfg)
							if err != nil {
								t.Fatalf("p=%d: %v", workers, err)
							}
							checkRun(t, fmt.Sprintf("p=%d", workers), cfg, got, want, res, first, serial)
							if workers == 1 {
								serial, first = got, res
							}
						}
						switch cfg.Method {
						case core.S3J:
							twin := fmt.Sprintf("%s/%s/L%d/%s", cfg.S3JMode, cfg.Algorithm, cfg.S3JLevels, b.name)
							if cfg.Curve == sfc.Peano {
								peanoTests[twin] = first.S3JStats.Tests
							} else if n := peanoTests[twin]; first.S3JStats.Tests != n {
								t.Fatalf("%d tests on %v, %d on Peano", first.S3JStats.Tests, cfg.Curve, n)
							}
						case core.PBSM:
							if b.name == "resident" && first.PBSMStats.P != 1 {
								t.Fatalf("P = %d at the resident budget", first.PBSMStats.P)
							}
							if b.name == "quarter" && cfg.PBSMDup == pbsm.DupRPM && !cfg.PBSMHashTiles {
								shardArms(t, in, cfg, serial, first, addrs)
							}
						}
					})
				}
			}
		})
	}
}

// checkRun fails unless got is want's set with every pair once and
// res counts it; and, past the one-worker run (first.Method set), unless
// the emission sequence, candidate tests and simulated I/O are serial's.
func checkRun(t *testing.T, label string, cfg core.Config, got, want []geom.Pair, res, first core.Result, serial []geom.Pair) {
	t.Helper()
	jointest.AssertEqual(t, slices.Clone(got), want)
	if res.Results != int64(len(want)) {
		t.Fatalf("%s: Result.Results = %d, want %d", label, res.Results, len(want))
	}
	if n := methodTests(res); len(want) > 0 && n == 0 {
		t.Fatalf("%s: %d results but no candidate tests recorded", label, len(want))
	}
	if ps := res.PBSMStats; ps != nil {
		// Stripe seams cut pairs, never results: without partitions
		// neither duplicate method has anything to remove, and RPM
		// writes nothing.
		if ps.P == 1 && (ps.RawResults != ps.Results || cfg.PBSMDup == pbsm.DupRPM && res.IO.CostUnits != 0) {
			t.Fatalf("%s: one partition, %d raw results for %d, %g I/O units", label, ps.RawResults, ps.Results, res.IO.CostUnits)
		}
	}
	if first.Method == "" {
		return
	}
	if !slices.Equal(got, serial) {
		t.Fatalf("%s: emission sequence differs from the one-worker run", label)
	}
	if methodTests(res) != methodTests(first) || res.IO != first.IO {
		t.Fatalf("%s: %d tests and I/O %+v, the one-worker run %d and %+v", label, methodTests(res), res.IO, methodTests(first), first.IO)
	}
}

// shardArms runs cfg through the shard fleet: over pipes to two and three
// spawned workers and over TCP to the two loopback workers. Each must
// reproduce the in-process one-worker run's emission sequence with no
// fault, no restart, no absorbed shard and no file left on a worker's
// disk; a join whose pairs all fit the budget touches no worker disk.
func shardArms(t *testing.T, in latticeInput, cfg core.Config, serial []geom.Pair, first core.Result, addrs []string) {
	t.Helper()
	for _, arm := range []struct {
		shards int
		addrs  []string
	}{{2, nil}, {3, nil}, {2, addrs}} {
		transport := "pipe"
		if arm.addrs != nil {
			transport = "tcp"
		}
		label := fmt.Sprintf("%s/shards=%d", transport, arm.shards)
		var got []geom.Pair
		res, err := shard.Join(in.R, in.S, shard.Config{
			Shards: arm.shards, Memory: cfg.Memory, Algorithm: cfg.Algorithm, TilesPerPartition: cfg.PBSMTilesPerPartition,
			Endpoints: arm.addrs,
		}, func(p geom.Pair) { got = append(got, p) })
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !slices.Equal(got, serial) {
			t.Fatalf("%s: %d results, in-process %d: set or emission sequence diverged", label, len(got), len(serial))
		}
		st := res.Stats
		if res.Results != int64(len(serial)) || st.Kills != 0 || st.Restarts != 0 || st.Absorbed != 0 || st.WorkerLiveFiles != 0 {
			t.Fatalf("%s: Results = %d for %d pairs, stats %+v", label, res.Results, len(serial), st)
		}
		if arm.addrs == nil && (st.Spawns < st.Shards || st.RemoteLeases != 0) ||
			arm.addrs != nil && (st.RemoteLeases < st.Shards || st.Spawns != 0 || st.Degraded != 0) {
			t.Fatalf("%s: %d spawns, %d remote leases, %d degraded for %d shards", label, st.Spawns, st.RemoteLeases, st.Degraded, st.Shards)
		}
		if first.PBSMStats.Repartitions == 0 && res.IO != (diskio.Stats{}) || len(serial) > 0 && res.CPU <= 0 {
			t.Fatalf("%s: worker I/O %+v and CPU %v; every pair that fits the budget joins in memory", label, res.IO, res.CPU)
		}
	}
}

// TestEmptyAlgorithmIsTheMethodDefault: core passes an empty
// Config.Algorithm through, and each method picks its own default — the
// list sweep for PBSM and SHJ, nested loops for S³J, the trie sweep for
// SSSJ — which counts the candidate tests of that algorithm and no other.
func TestEmptyAlgorithmIsTheMethodDefault(t *testing.T) {
	R, S := datagen.LARR(7, 800).KPEs, datagen.LAST(8, 800).KPEs
	kinds := []sweep.Kind{sweep.NestedLoopsKind, sweep.ListKind, sweep.TrieKind}
	for m, def := range map[core.Method]sweep.Kind{core.PBSM: sweep.ListKind, core.S3J: sweep.NestedLoopsKind, core.SSSJ: sweep.TrieKind, core.SHJ: sweep.ListKind} {
		tests := map[sweep.Kind]int64{}
		for _, alg := range append(kinds, "") {
			_, res, err := core.Collect(R, S, core.Config{Method: m, Memory: 16 << 10, Algorithm: alg})
			if err != nil {
				t.Fatalf("%s/%q: %v", m, alg, err)
			}
			tests[alg] = methodTests(res)
		}
		for _, alg := range kinds {
			// SSSJ sweeps the whole space, so it runs nested loops as the trie.
			same := alg == def || m == core.SSSJ && alg == sweep.NestedLoopsKind
			if (tests[alg] == tests[""]) != same {
				t.Errorf("%s: the default counts %d tests, %s %d; the default is %s", m, tests[""], alg, tests[alg], def)
			}
		}
	}
}
