// Kill-a-shard chaos: the coordinator kills one worker's link at seeded,
// deterministic points — as soon as the link exists, between partition
// seals, and mid-emission of a partition's results — across shard
// counts, on both transports: a spawned worker process is SIGKILLed, a
// resident worker's connection is closed. The only acceptable outcome
// is full self-healing: the coordinator restarts or absorbs the dead
// shard and the result sequence (set AND order) is byte-identical to the
// single-process join. Leaked simulated-disk files, leaked goroutines,
// and stats, metrics and trace instants that disagree (assertViewsAgree)
// are all failures.
package chaos

import (
	"os"
	"runtime"
	"testing"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/shard"
	"spatialjoin/internal/trace"
)

// TestMain lets the coordinator re-execute this test binary as a shard
// worker, the way it re-executes sjoin.
func TestMain(m *testing.M) {
	shard.ServeIfWorker()
	os.Exit(m.Run())
}

const shardMemory = 32 << 10 // several top-level partitions at nRecs

// shardBaseline is the fault-free single-process ground truth.
func shardBaseline(t *testing.T) []geom.Pair {
	t.Helper()
	R, S := dataset()
	pairs, _, err := core.Collect(R, S, core.Config{Memory: shardMemory, Parallel: 1})
	if err != nil {
		t.Fatalf("baseline join: %v", err)
	}
	return pairs
}

func shardChaosConfig(t *testing.T, shards int) shard.Config {
	t.Helper()
	return shard.Config{
		Shards: shards,
		Memory: shardMemory,
	}
}

// countInstants tallies the named instant events in a recorder.
func countInstants(rec *trace.Recorder, name string) int {
	n := 0
	for _, s := range rec.Spans() {
		if s.Instant && s.Name == name {
			n++
		}
	}
	return n
}

// seriesCount totals a series of a snapshot over its labels: a counter's
// value, a histogram's observation count.
func seriesCount(s metrics.Snapshot, name string) float64 {
	n := 0.0
	for _, p := range s.Points {
		switch {
		case p.Name != name:
		case p.Hist != nil:
			n += float64(p.Hist.Count)
		default:
			n += p.Value
		}
	}
	return n
}

// view is one fact of a sharded join as each book records it: a field
// of the coordinator's shard.Stats, a registry series (a histogram counts
// its observations) and a trace instant. A nil stat or an empty instant
// means that book does not record the fact.
type view struct {
	stat    func(shard.Stats) int
	metric  string
	instant string
}

// shardViews lists every fact of a sharded join that two books record.
var shardViews = []view{
	{func(s shard.Stats) int { return s.Spawns }, "shard.spawns", ""},
	{func(s shard.Stats) int { return s.Kills }, "shard.kills", "shard-kill"},
	{func(s shard.Stats) int { return s.Restarts }, "shard.restarts", "shard-retry"},
	{func(s shard.Stats) int { return s.Rederived }, "shard.rederived", ""},
	{func(s shard.Stats) int { return s.Absorbed }, "shard.absorbed", "shard-absorb"},
	{func(s shard.Stats) int { return s.Degraded }, "shard.degraded", "shard-degrade"},
	{func(s shard.Stats) int { return s.Seals }, "shard.seals", ""},
	{func(s shard.Stats) int { return s.Recoveries }, "shard.recovery.seconds", ""},
	{func(s shard.Stats) int { return s.RemoteLeases }, "shard.net.leases", ""},
	{nil, "shard.net.evictions", "net-evict"},
	{nil, "shard.net.quarantined", "net-quarantine"},
	{nil, "shard.net.reconnect.seconds", "net-reconnect"},
}

// assertViewsAgree requires the books of one join to agree on every row
// of shardViews: the join's Stats, the registry delta over the join (the
// pool's included, which must share the registry) and the recorder's
// instants. A latency histogram with observations must also have a
// positive sum.
func assertViewsAgree(t *testing.T, label string, st shard.Stats, delta metrics.Snapshot, rec *trace.Recorder) {
	t.Helper()
	for _, v := range shardViews {
		n := seriesCount(delta, v.metric)
		if v.stat != nil && n != float64(v.stat(st)) {
			t.Fatalf("%s: metric %s delta %.0f, stats say %d", label, v.metric, n, v.stat(st))
		}
		if v.instant != "" && n != float64(countInstants(rec, v.instant)) {
			t.Fatalf("%s: metric %s delta %.0f, trace records %d %s instants", label, v.metric, n, countInstants(rec, v.instant), v.instant)
		}
		if h := delta.Hist(v.metric); h.Count > 0 && h.Sum <= 0 {
			t.Fatalf("%s: histogram %s has %d observations summing to %v", label, v.metric, h.Count, h.Sum)
		}
	}
}

// assertSameSequence requires got to equal want element-for-element.
func assertSameSequence(t *testing.T, label string, got, want []geom.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d is %+v, want %+v — emission order diverged", label, i, got[i], want[i])
		}
	}
}

// settleGoroutines polls for the goroutine count to return to the
// baseline; supervision goroutines unwind asynchronously after Join
// returns.
func settleGoroutines(t *testing.T, label string, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%s: goroutines leaked: %d before, %d after\n%s",
				label, before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardKillSweep is the tentpole invariant: for every (shard count,
// kill point, transport) cell, kill one worker at a deterministic instant
// and require the join to self-heal to the exact single-process result
// sequence with zero leaked worker-disk files and zero goroutine leaks,
// and with coordinator stats, metrics and trace instants agreeing. The
// TCP cells ("-tcp") run every attempt on a pool of two in-process
// resident workers, so the race detector watches the kill path and both
// ends of the torn conversation, and the retry must lease again rather
// than spawn.
func TestShardKillSweep(t *testing.T) {
	want := shardBaseline(t)
	shardCounts := []int{1, 2, 4}
	kills := []shard.KillSpec{
		{Point: shard.KillSpawn},
		{Point: shard.KillMidPairs, AfterParts: 1},
		{Point: shard.KillMidEmit, AfterPairs: 3},
	}
	seeds := []int{0, 1, 2}
	if testing.Short() {
		shardCounts = []int{2}
		seeds = []int{0}
	}
	for _, n := range shardCounts {
		for _, kill := range kills {
			for _, seed := range seeds {
				for _, tcp := range []bool{false, true} {
					label := kill.Point
					if tcp {
						label += "-tcp"
					}
					t.Run(labelFor(n, label, seed), func(t *testing.T) {
						cfg := shardChaosConfig(t, n)
						// The victim shard is seeded; the kill hits its first
						// attempt, so the coordinator must restart it once.
						cfg.Chaos = &shard.ChaosSpec{Kills: []shard.ChaosKill{
							{Shard: seed % n, Attempt: 1, Kill: kill},
						}}
						rec := trace.New()
						reg := metrics.New()
						cfg.Trace = rec
						cfg.Metrics = reg
						if tcp {
							pool, err := shard.NewPool(shard.PoolConfig{Endpoints: residentWorkers(t, 2), Metrics: reg, Trace: rec})
							if err != nil {
								t.Fatal(err)
							}
							defer pool.Close()
							cfg.Pool = pool
						}

						before := runtime.NumGoroutine()
						var got []geom.Pair
						R, S := dataset()
						res, err := shard.Join(R, S, cfg, func(p geom.Pair) { got = append(got, p) })
						if err != nil {
							t.Fatalf("join did not self-heal: %v", err)
						}
						assertSameSequence(t, label, got, want)
						assertViewsAgree(t, label, res.Stats, reg.Snapshot(), rec)

						if res.Stats.Kills < 1 {
							t.Fatalf("no kill recorded in stats: %+v", res.Stats)
						}
						if res.Stats.Restarts < 1 {
							t.Fatalf("no restart recorded in stats: %+v", res.Stats)
						}
						// A mid-emit kill always leaves its in-flight partition
						// unsealed, so something must be re-derived. (Mid-pairs
						// can legitimately re-derive nothing when the victim's
						// last partition sealed before the kill.)
						if kill.Point == shard.KillMidEmit && res.Stats.Rederived < 1 {
							t.Fatalf("mid-emit kill but nothing re-derived: %+v", res.Stats)
						}
						if res.Stats.Recoveries < 1 || res.Stats.RecoveryNS <= 0 {
							t.Fatalf("recovery latency not measured: %+v", res.Stats)
						}
						if res.Stats.WorkerLiveFiles != 0 {
							t.Fatalf("workers leaked %d simulated-disk files", res.Stats.WorkerLiveFiles)
						}
						if tcp && (res.Stats.Spawns != 0 || res.Stats.RemoteLeases < 2) {
							t.Fatalf("a killed lease must be retried on the pool, not spawned: %+v", res.Stats)
						}
						settleGoroutines(t, label, before)
					})
				}
			}
		}
	}
}

func labelFor(shards int, point string, seed int) string {
	return point + "-s" + string(rune('0'+shards)) + "-v" + string(rune('0'+seed))
}

// TestShardAbsorbAfterRepeatedKills kills EVERY attempt of one shard;
// the coordinator must exhaust the restart budget and absorb the
// shard's partitions into its own process, still producing the exact
// sequence.
func TestShardAbsorbAfterRepeatedKills(t *testing.T) {
	want := shardBaseline(t)
	cfg := shardChaosConfig(t, 2)
	var kills []shard.ChaosKill
	for attempt := 1; attempt <= shard.MaxRestarts+1; attempt++ {
		kills = append(kills, shard.ChaosKill{
			Shard: 1, Attempt: attempt,
			Kill: shard.KillSpec{Point: shard.KillMidPairs, AfterParts: 1},
		})
	}
	cfg.Chaos = &shard.ChaosSpec{Kills: kills}
	rec := trace.New()
	reg := metrics.New()
	cfg.Trace = rec
	cfg.Metrics = reg

	before := runtime.NumGoroutine()
	var got []geom.Pair
	R, S := dataset()
	res, err := shard.Join(R, S, cfg, func(p geom.Pair) { got = append(got, p) })
	if err != nil {
		t.Fatalf("join did not absorb the failing shard: %v", err)
	}
	assertSameSequence(t, "absorb", got, want)
	assertViewsAgree(t, "absorb", res.Stats, reg.Snapshot(), rec)
	if res.Stats.Absorbed != 1 {
		t.Fatalf("Absorbed=%d, want 1: %+v", res.Stats.Absorbed, res.Stats)
	}
	if res.Stats.Kills != shard.MaxRestarts+1 {
		t.Fatalf("Kills=%d, want %d", res.Stats.Kills, shard.MaxRestarts+1)
	}
	settleGoroutines(t, "absorb", before)
}
