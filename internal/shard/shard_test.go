package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/shard"
	"spatialjoin/internal/trace"
)

// TestShardWorkerHelper is not a test: it is the re-exec target the
// helper-process pattern uses to turn this test binary into a shard
// worker. Without the environment marker it is a no-op.
func TestShardWorkerHelper(t *testing.T) {
	shard.RunHelperWorker()
}

const (
	testRecs   = 1500
	testMemory = 32 << 10 // small enough for several top-level partitions
)

func testData() (r, s []geom.KPE) {
	return datagen.Uniform(101, testRecs, 0.004), datagen.Uniform(202, testRecs, 0.004)
}

// serialPairs is the single-process ground truth: same memory, same
// method, same duplicate elimination.
func serialPairs(t *testing.T, r, s []geom.KPE) []geom.Pair {
	t.Helper()
	pairs, _, err := core.Collect(r, s, core.Config{Memory: testMemory, Parallel: 1})
	if err != nil {
		t.Fatalf("serial join: %v", err)
	}
	return pairs
}

func shardConfig(t *testing.T, n int) shard.Config {
	t.Helper()
	cmd, env := shard.HelperWorkerCmd("TestShardWorkerHelper")
	return shard.Config{
		Shards:    n,
		Memory:    testMemory,
		WorkerCmd: cmd,
		WorkerEnv: env,
		TmpRoot:   t.TempDir(),
	}
}

func TestShardJoinMatchesSerial(t *testing.T) {
	r, s := testData()
	want := serialPairs(t, r, s)
	for _, n := range []int{1, 2, 4} {
		cfg := shardConfig(t, n)
		var got []geom.Pair
		res, err := shard.Join(r, s, cfg, func(p geom.Pair) { got = append(got, p) })
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d results, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: result %d is %+v, want %+v — emission order diverged", n, i, got[i], want[i])
			}
		}
		if res.Results != int64(len(want)) {
			t.Fatalf("shards=%d: Results=%d, want %d", n, res.Results, len(want))
		}
		if res.Stats.Kills != 0 || res.Stats.Restarts != 0 || res.Stats.Absorbed != 0 {
			t.Fatalf("shards=%d: unexpected fault stats %+v", n, res.Stats)
		}
		if res.Stats.WorkerLiveFiles != 0 {
			t.Fatalf("shards=%d: workers leaked %d files", n, res.Stats.WorkerLiveFiles)
		}
		if res.Stats.Spawns < res.Stats.Shards || res.Stats.RemoteLeases != 0 {
			t.Fatalf("shards=%d: %d spawns and %d remote leases for %d pipe shards", n, res.Stats.Spawns, res.Stats.RemoteLeases, res.Stats.Shards)
		}
		// Every pair fits testMemory, so the workers join each one where
		// it arrived, in memory, and their disks stay untouched.
		if res.IO != (diskio.Stats{}) || res.CPU <= 0 {
			t.Fatalf("shards=%d: want no worker I/O and some CPU: %+v", n, res)
		}
	}
}

// TestShardJoinSpoolsOversizedPair: a pair over the budget still takes
// the file path inside the worker process — written, repartitioned, read
// back — and the sharded join still reproduces the serial one at the same
// budget, emission order included.
func TestShardJoinSpoolsOversizedPair(t *testing.T) {
	r, s := testData()
	// A cluster no tile table can spread: one tile holds more records
	// than testMemory, so its pair repartitions in whichever process runs
	// it.
	for i, k := range datagen.Uniform(73, 600, 0.1) {
		c := k.Rect
		k.ID, k.Rect = uint64(5000+i), geom.NewRect(0.3+c.XL/100, 0.3+c.YL/100, 0.3+c.XH/100, 0.3+c.YH/100)
		r, s = append(r, k), append(s, k)
	}
	want := serialPairs(t, r, s)
	var got []geom.Pair
	res, err := shard.Join(r, s, shardConfig(t, 2), func(p geom.Pair) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%d results, serial %d: set or emission order diverged", len(got), len(want))
	}
	if res.Stats.Kills != 0 || res.Stats.Absorbed != 0 || res.Stats.WorkerLiveFiles != 0 {
		t.Fatalf("unexpected fault or leak stats %+v", res.Stats)
	}
	if res.IO.PagesWritten <= 0 || res.IO.PagesRead <= 0 {
		t.Fatalf("the oversized pair charged no worker I/O: %+v", res.IO)
	}
}

func TestShardJoinThroughCore(t *testing.T) {
	r, s := testData()
	want := serialPairs(t, r, s)
	cmd, env := shard.HelperWorkerCmd("TestShardWorkerHelper")
	// core.Config has no worker-command knob; route through shard.Join
	// for the command but verify the core dispatch path with the real
	// os.Executable default being impossible here (test binary would
	// rerun the whole suite). Instead prove core.Join validates and
	// delegates: a DupSort config must be rejected.
	_, _, err := core.Collect(r, s, core.Config{Memory: testMemory, Shards: 2, PBSMDup: 1})
	if err == nil {
		t.Fatal("core.Join accepted Shards>1 with DupSort")
	}
	// The paper's hash plan is single-process only; asking for it sharded
	// must fail instead of silently running the balanced plan.
	if _, _, err := core.Collect(r, s, core.Config{Memory: testMemory, Shards: 2, PBSMHashTiles: true}); err == nil {
		t.Fatal("core.Join accepted Shards>1 with PBSMHashTiles")
	}
	// And the registered path works end to end when the worker command
	// is the helper: exercise the adapter directly.
	rec := trace.New()
	var got []geom.Pair
	res, err := shard.Join(r, s, shard.Config{
		Shards: 2, Memory: testMemory,
		WorkerCmd: cmd, WorkerEnv: env,
		TmpRoot: t.TempDir(),
		Trace:   rec,
	}, func(p geom.Pair) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	if res.Stats.Shards != 2 {
		t.Fatalf("Stats.Shards=%d, want 2", res.Stats.Shards)
	}
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no trace spans recorded")
	}
}

// TestShardJoinCancel: a sharded join that dies of a fatal kind —
// canceled before the scatter — fails with that kind
// and counts shard.aborted exactly once, its only abort footprint (core's
// fail path never sees a sharded join); a clean join counts nothing.
func TestShardJoinCancel(t *testing.T) {
	r, s := testData()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		set  func(*shard.Config)
		kind joinerr.Kind // the failure's kind, when want is 1
		want float64      // shard.aborted after the join
	}{
		{"pre-canceled", func(c *shard.Config) { c.Ctx = canceled }, joinerr.KindCanceled, 1},
		{"clean", func(*shard.Config) {}, 0, 0},
	} {
		cfg := shardConfig(t, 2)
		cfg.Metrics = metrics.New()
		tc.set(&cfg)
		_, err := shard.Join(r, s, cfg, func(geom.Pair) {})
		switch {
		case tc.want == 0 && err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case tc.want != 0 && joinerr.KindOf(err) != tc.kind:
			t.Fatalf("%s: got %v (kind %v), want kind %v", tc.name, err, joinerr.KindOf(err), tc.kind)
		}
		if got := cfg.Metrics.Snapshot().Value("shard.aborted"); got != tc.want {
			t.Fatalf("%s: shard.aborted = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestShardJoinConfigErrors(t *testing.T) {
	r, s := testData()
	if _, err := shard.Join(r, s, shard.Config{}, func(geom.Pair) {}); err == nil {
		t.Fatal("zero Memory accepted")
	}
}

// TestShardJoinTLSP pins the property that admits TLSP to sharded
// execution: its partition output is globally duplicate-free by
// construction, so a sharded TLSP join reproduces the single-process
// TLSP join exactly — set AND emission order — at every shard count,
// with exactly one seal per partition.
func TestShardJoinTLSP(t *testing.T) {
	r, s := testData()
	want, _, err := core.Collect(r, s, core.Config{
		Memory: testMemory, Parallel: 1, PBSMDup: pbsm.DupTLSP,
	})
	if err != nil {
		t.Fatalf("serial TLSP join: %v", err)
	}
	rpm := serialPairs(t, r, s)
	if len(want) != len(rpm) {
		t.Fatalf("test setup: TLSP found %d pairs, RPM %d", len(want), len(rpm))
	}
	for _, n := range []int{1, 2, 4} {
		cfg := shardConfig(t, n)
		cfg.Dup = pbsm.DupTLSP
		var got []geom.Pair
		res, err := shard.Join(r, s, cfg, func(p geom.Pair) { got = append(got, p) })
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d results, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: result %d is %+v, want %+v — emission order diverged",
					n, i, got[i], want[i])
			}
		}
		if res.Stats.Seals != res.Stats.Partitions {
			t.Fatalf("shards=%d: %d seals for %d partitions", n, res.Stats.Seals, res.Stats.Partitions)
		}
	}
}

// TestShardJoinRejectsDupSort pins the fail-loud arm of the dup axis at
// the shard layer itself (core's own rejection is tested separately):
// sort-based dedup cannot shard, and unknown methods are refused.
func TestShardJoinRejectsDupSort(t *testing.T) {
	r, s := testData()
	cfg := shardConfig(t, 2)
	cfg.Dup = pbsm.DupSort
	if _, err := shard.Join(r, s, cfg, func(geom.Pair) {}); err == nil {
		t.Fatal("shard.Join accepted DupSort")
	}
	cfg.Dup = pbsm.DupMethod(9)
	if _, err := shard.Join(r, s, cfg, func(geom.Pair) {}); err == nil {
		t.Fatal("shard.Join accepted an unknown DupMethod")
	}
}

// TestWorkerRefusesJobItCannotMean: a job frame that decodes but whose
// routing this worker does not share is answered with a structured fail
// frame (KindShard, phase config) before any input is read — one case
// per direction a worker can detect. An older coordinator writes no
// Proto and no tile→partition table; a newer one writes a Proto this
// build does not know; and a current one whose hashed grid lost its table
// has no routing to follow. (The fourth direction, an older worker under
// this coordinator, ignores both fields and cannot be caught here:
// DESIGN.md §12.)
func TestWorkerRefusesJobItCannotMean(t *testing.T) {
	hashed := pbsm.PlanGrid(testRecs, testRecs, pbsm.Config{Memory: testMemory})
	if hashed.Parts < 2 || !hashed.Valid() {
		t.Fatalf("test setup: grid %v", hashed)
	}
	bare := hashed
	bare.Assign = nil
	for name, spec := range map[string]shard.JobSpec{
		"older coordinator": {Grid: bare, Memory: testMemory},
		"newer coordinator": {Proto: shard.ProtoVersion + 1, Grid: hashed, Memory: testMemory},
		"table lost":        {Proto: shard.ProtoVersion, Grid: bare, Memory: testMemory},
	} {
		job, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var in, out bytes.Buffer
		if err := shard.NewFrameWriter(&in).Write(shard.FrameJob, job); err != nil {
			t.Fatal(err)
		}
		if err := shard.WorkerMain(&in, &out); joinerr.KindOf(err) != joinerr.KindShard {
			t.Fatalf("%s: WorkerMain returned %v, want a KindShard refusal", name, err)
		}
		typ, payload, err := shard.NewFrameReader(&out).Next()
		if err != nil || typ != shard.FrameFail {
			t.Fatalf("%s: worker answered frame %d (%v), want a fail frame", name, typ, err)
		}
		var fail struct {
			Phase string `json:"phase"`
			Kind  int    `json:"kind"`
		}
		if err := json.Unmarshal(payload, &fail); err != nil {
			t.Fatalf("%s: fail payload: %v", name, err)
		}
		if fail.Phase != "config" || joinerr.Kind(fail.Kind) != joinerr.KindShard {
			t.Fatalf("%s: fail frame says phase %q kind %v, want config/KindShard", name, fail.Phase, joinerr.Kind(fail.Kind))
		}
	}
}
