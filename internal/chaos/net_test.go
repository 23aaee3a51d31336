// Network chaos: the TCP shard transport under injected connection
// faults — dials dropped, the part-ship stream reset mid-frame, the
// pairs stream reset mid-frame — across pool sizes and seeds, with
// in-process resident workers so the race detector watches both sides
// of the protocol. The only acceptable outcome is the kill sweep's:
// every injected fault ends in a completed join whose result sequence
// is byte-identical to the single-process run, with zero leaked
// worker-disk files, zero leaked goroutines, and the pool's metric
// deltas agreeing exactly with the trace's evict/reconnect instants
// (assertViewsAgree).
package chaos

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/netfault"
	"spatialjoin/internal/shard"
	"spatialjoin/internal/trace"
)

// residentWorkers serves n in-process resident workers on loopback
// listeners; the listeners close with the test. In-process workers are
// deliberate here: a network fault or a ChaosSpec kill tears only the
// connection, and sharing the process puts both protocol ends under
// -race.
func residentWorkers(t *testing.T, n int) []string {
	t.Helper()
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

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// deadPool is a pool over one address nothing listens on that
// quarantines it on the first failed dial, recording into reg and rec.
func deadPool(t *testing.T, reg *metrics.Registry, rec *trace.Recorder) *shard.Pool {
	t.Helper()
	pool, err := shard.NewPool(shard.PoolConfig{
		Endpoints:       []string{deadAddr(t)},
		DialTimeout:     200 * time.Millisecond,
		QuarantineAfter: 1,
		Metrics:         reg,
		Trace:           rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// TestShardNetFaultSweep injects one scripted connection fault per cell
// — a dropped dial, a write reset tearing the part-ship stream, a read
// reset tearing the pairs stream — across pool sizes and seeds, and
// requires full self-healing with reconciled accounting.
func TestShardNetFaultSweep(t *testing.T) {
	want := shardBaseline(t)
	type faultCase struct {
		name string
		cfg  func(seed int) netfault.Config
	}
	faults := []faultCase{
		{"drop-at-dial", func(seed int) netfault.Config {
			return netfault.Config{Seed: int64(seed), DropDialAt: 1}
		}},
		{"reset-mid-ship", func(seed int) netfault.Config {
			return netfault.Config{Seed: int64(seed), ResetWriteAt: int64(4<<10 + seed*2<<10)}
		}},
		{"reset-mid-pairs", func(seed int) netfault.Config {
			// The coordinator's read side is lean — part seals, pairs,
			// done reports — under 2 KiB per join, so the threshold sits
			// in the low hundreds: past every lease ping (all shards
			// lease up-front, concurrently) and inside the reply stream.
			return netfault.Config{Seed: int64(seed), ResetReadAt: int64(512 + seed*256)}
		}},
	}
	pools := []int{1, 2, 4}
	seeds := []int{0, 1, 2}
	if testing.Short() {
		pools = []int{2}
		seeds = []int{0}
	}
	R, S := dataset()
	for _, fc := range faults {
		for _, n := range pools {
			for _, seed := range seeds {
				fc, n, seed := fc, n, seed
				t.Run(labelFor(n, fc.name, seed), func(t *testing.T) {
					endpoints := residentWorkers(t, n)
					before := runtime.NumGoroutine()
					pol := netfault.New(fc.cfg(seed))
					reg := metrics.New()
					rec := trace.New()
					pool, err := shard.NewPool(shard.PoolConfig{
						Endpoints: endpoints,
						Dial:      pol.WrapDial(nil),
						Metrics:   reg,
						Trace:     rec,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer pool.Close()
					cfg := shardChaosConfig(t, n)
					cfg.Pool = pool
					cfg.Metrics = reg
					cfg.Trace = rec

					mBefore := reg.Snapshot()
					var got []geom.Pair
					res, err := shard.Join(R, S, cfg, func(p geom.Pair) { got = append(got, p) })
					if err != nil {
						t.Fatalf("join did not heal the injected %s fault: %v", fc.name, err)
					}
					assertSameSequence(t, fc.name, got, want)

					if pol.Stats().Total() < 1 {
						t.Fatalf("no fault was injected: %+v", pol.Stats())
					}
					delta := reg.Snapshot().Sub(mBefore)
					if n := delta.Value("shard.net.evictions"); n < 1 {
						t.Fatalf("injected %s fault but the pool evicted nothing (%.0f)", fc.name, n)
					}
					if h := delta.Hist("shard.net.reconnect.seconds"); fc.name == "drop-at-dial" && h.Count < 1 {
						t.Fatalf("dropped dial but no reconnect measured: %+v", h)
					}
					if fc.name != "drop-at-dial" && (res.Stats.Kills < 1 || res.Stats.Restarts < 1) {
						t.Fatalf("mid-stream reset must surface as a kill and restart: %+v", res.Stats)
					}
					if res.Stats.Degraded != 0 {
						t.Fatalf("a single connection fault degraded %d shards", res.Stats.Degraded)
					}

					assertViewsAgree(t, fc.name, res.Stats, delta, rec)

					if res.Stats.WorkerLiveFiles != 0 {
						t.Fatalf("workers leaked %d simulated-disk files", res.Stats.WorkerLiveFiles)
					}
					settleGoroutines(t, fc.name, before)
				})
			}
		}
	}
}

// TestShardNetDegradeToLocal is the ladder's second rung: a fleet that
// refuses every connection must quarantine promptly and every shard must
// degrade to a locally spawned worker — a slower join, never a failed
// one, and no restart budget spent on the way down.
func TestShardNetDegradeToLocal(t *testing.T) {
	want := shardBaseline(t)
	before := runtime.NumGoroutine()
	reg := metrics.New()
	rec := trace.New()
	cfg := shardChaosConfig(t, 2)
	cfg.Pool = deadPool(t, reg, rec)
	cfg.Metrics = reg
	cfg.Trace = rec

	mBefore := reg.Snapshot()
	var got []geom.Pair
	R, S := dataset()
	res, err := shard.Join(R, S, cfg, func(p geom.Pair) { got = append(got, p) })
	if err != nil {
		t.Fatalf("join did not degrade around the dead fleet: %v", err)
	}
	assertSameSequence(t, "degrade", got, want)
	if res.Stats.Degraded != res.Stats.Shards {
		t.Fatalf("Degraded=%d, want all %d shards", res.Stats.Degraded, res.Stats.Shards)
	}
	if res.Stats.Restarts != 0 || res.Stats.Kills != 0 {
		t.Fatalf("degradation consumed fault budget: %+v", res.Stats)
	}
	assertViewsAgree(t, "degrade", res.Stats, reg.Snapshot().Sub(mBefore), rec)
	if got := countInstants(rec, "net-quarantine"); got != 1 {
		t.Fatalf("trace records %d net-quarantine instants, want 1", got)
	}
	settleGoroutines(t, "degrade", before)
}

// TestShardNetFullLadder walks all three rungs in one join: the fleet
// is dead (degrade to local spawns), and chaos kills every local
// attempt of one shard (absorb in-process). The sequence must still be
// byte-identical.
func TestShardNetFullLadder(t *testing.T) {
	want := shardBaseline(t)
	before := runtime.NumGoroutine()
	reg := metrics.New()
	rec := trace.New()
	cfg := shardChaosConfig(t, 2)
	cfg.Pool = deadPool(t, reg, rec)
	cfg.Metrics = reg
	cfg.Trace = rec
	var kills []shard.ChaosKill
	for attempt := 1; attempt <= shard.MaxRestarts+1; attempt++ {
		kills = append(kills, shard.ChaosKill{
			Shard: 0, Attempt: attempt,
			Kill: shard.KillSpec{Point: shard.KillMidPairs, AfterParts: 1},
		})
	}
	cfg.Chaos = &shard.ChaosSpec{Kills: kills}

	var got []geom.Pair
	R, S := dataset()
	res, err := shard.Join(R, S, cfg, func(p geom.Pair) { got = append(got, p) })
	if err != nil {
		t.Fatalf("join did not walk the full degradation ladder: %v", err)
	}
	assertSameSequence(t, "ladder", got, want)
	assertViewsAgree(t, "ladder", res.Stats, reg.Snapshot(), rec)
	if res.Stats.Degraded != 2 {
		t.Fatalf("Degraded=%d, want both shards", res.Stats.Degraded)
	}
	if res.Stats.Absorbed != 1 {
		t.Fatalf("Absorbed=%d, want 1: %+v", res.Stats.Absorbed, res.Stats)
	}
	if res.Stats.Kills != shard.MaxRestarts+1 {
		t.Fatalf("Kills=%d, want %d", res.Stats.Kills, shard.MaxRestarts+1)
	}
	settleGoroutines(t, "ladder", before)
}

// TestShardNetRederivedOncePerRetry: a read reset kills a shard's first
// lease and quarantines the pool's one endpoint, so the retry's lease
// finds no link and the shard degrades to a spawn. The retry re-ships
// its unsealed partitions once, to the spawned worker; the lease that
// produced no link shipped nothing and re-derives nothing, so Rederived
// can never exceed the partition count.
func TestShardNetRederivedOncePerRetry(t *testing.T) {
	want := shardBaseline(t)
	R, S := dataset()
	for _, at := range []int64{512, 768, 1024} {
		t.Run(fmt.Sprintf("reset-read-%d", at), func(t *testing.T) {
			endpoints := residentWorkers(t, 1)
			before := runtime.NumGoroutine()
			reg := metrics.New()
			rec := trace.New()
			pol := netfault.New(netfault.Config{ResetReadAt: at})
			pool, err := shard.NewPool(shard.PoolConfig{
				Endpoints:       endpoints,
				Dial:            pol.WrapDial(nil),
				QuarantineAfter: 1,
				Metrics:         reg,
				Trace:           rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			cfg := shardChaosConfig(t, 1)
			cfg.Pool = pool
			cfg.Metrics = reg
			cfg.Trace = rec

			var got []geom.Pair
			res, err := shard.Join(R, S, cfg, func(p geom.Pair) { got = append(got, p) })
			if err != nil {
				t.Fatalf("join did not heal the read reset: %v", err)
			}
			assertSameSequence(t, "rederive", got, want)
			assertViewsAgree(t, "rederive", res.Stats, reg.Snapshot(), rec)
			if res.Stats.Kills < 1 || res.Stats.Degraded < 1 {
				t.Fatalf("the reset did not kill a lease and degrade its retry: %+v", res.Stats)
			}
			if res.Stats.Rederived > res.Stats.Partitions {
				t.Fatalf("Rederived=%d exceeds the %d partitions: a degraded retry counted its partitions twice", res.Stats.Rederived, res.Stats.Partitions)
			}
			settleGoroutines(t, "rederive", before)
		})
	}
}
