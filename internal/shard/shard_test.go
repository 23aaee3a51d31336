package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/shard"
)

// TestMain lets the coordinator re-execute this test binary as a shard
// worker, the way it re-executes sjoin.
func TestMain(m *testing.M) {
	shard.ServeIfWorker()
	os.Exit(m.Run())
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
	return shard.Config{
		Shards: n,
		Memory: testMemory,
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

// TestShardJoinThroughCore: core.Join with Shards > 1 runs through the
// registered executor (coreJoin) on two spawned workers — this test
// binary re-executed with -shard-worker — and returns the serial join's
// pairs in its emission order, with the coordinator's counts in the
// caller's registry and its result in core.Result.
func TestShardJoinThroughCore(t *testing.T) {
	r, s := testData()
	want := serialPairs(t, r, s)
	reg := metrics.New()
	got, res, err := core.Collect(r, s, core.Config{Memory: testMemory, Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%d results, serial %d: set or emission order diverged", len(got), len(want))
	}
	if res.Method != core.PBSM || res.Results != int64(len(want)) || res.CPU <= 0 {
		t.Fatalf("core.Result %+v for %d pairs", res, len(want))
	}
	snap := reg.Snapshot()
	for name, n := range map[string]float64{"shard.spawns": 2, "shard.kills": 0, "shard.restarts": 0, "shard.absorbed": 0} {
		if got := snap.Value(name); got != n {
			t.Errorf("%s = %v, want %v", name, got, n)
		}
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

// TestWorkerRefusesJobItCannotMean: a job frame that decodes but whose
// routing this worker does not share is answered with a structured fail
// frame (KindShard, phase config) before any input is read — one case
// per direction a worker can detect. An older coordinator writes no
// Proto and no tile→partition table; a protocol-2 coordinator writes a
// table but no stripe rows, and its workers cut each pair by its own
// record count; a newer one writes a Proto this build does not know; a
// current one whose hashed grid lost its table has no routing to follow,
// and one whose grid lost its rows has no stripes; and a coordinator of
// the build that still had a third duplicate method sent it as dup 2,
// over a grid whose tiles were its partitions, flagged and without a
// table, at protocol 2. (The last direction, an older worker under this
// coordinator, ignores the table and the rows and cannot be caught here:
// DESIGN.md §12.)
func TestWorkerRefusesJobItCannotMean(t *testing.T) {
	hashed := pbsm.PlanGrid(testRecs, testRecs, pbsm.Config{Memory: testMemory})
	if hashed.Parts < 2 || hashed.Rows < 1 || !hashed.Valid() {
		t.Fatalf("test setup: grid %v", hashed)
	}
	bare := hashed
	bare.Assign = nil
	rowless := hashed
	rowless.Rows = 0
	jobs := map[string][]byte{
		"three-method coordinator": []byte(`{"proto":2,"shard":0,"attempt":1,"parts":[0],` +
			`"grid":{"nx":3,"ny":3,"parts":9,"tlsp":true},"memory":32768,"dup":2}`),
	}
	for name, spec := range map[string]shard.JobSpec{
		"older coordinator":   {Grid: bare, Memory: testMemory},
		"proto-2 coordinator": {Proto: 2, Grid: rowless, Memory: testMemory},
		"newer coordinator":   {Proto: shard.ProtoVersion + 1, Grid: hashed, Memory: testMemory},
		"table lost":          {Proto: shard.ProtoVersion, Grid: bare, Memory: testMemory},
		"rows lost":           {Proto: shard.ProtoVersion, Grid: rowless, Memory: testMemory},
		"unknown algorithm":   {Proto: shard.ProtoVersion, Grid: hashed, Memory: testMemory, Algorithm: "tri"},
	} {
		job, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[name] = job
	}
	for name, job := range jobs {
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
