package shard_test

import (
	"net"
	"slices"
	"testing"
	"time"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/netfault"
	"spatialjoin/internal/shard"
)

// residentWorkers is the package's loopback worker helper (pool_test.go).
func residentWorkers(t *testing.T, n int) []string { return shard.ResidentWorkers(t, n) }

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

func TestShardJoinSharedPoolAcrossJoins(t *testing.T) {
	r, s := testData()
	want := serialPairs(t, r, s)
	reg := metrics.New()
	pool, err := shard.NewPool(shard.PoolConfig{Endpoints: residentWorkers(t, 2), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for round := 0; round < 2; round++ {
		cfg := shardConfig(t, 2)
		cfg.Pool = pool
		var got []geom.Pair
		if _, err := shard.Join(r, s, cfg, func(p geom.Pair) { got = append(got, p) }); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("shared pool: %d results, serial %d: set or emission order diverged", len(got), len(want))
		}
	}
	// The pool survived both joins: the resident workers were leased and
	// returned, never consumed.
	m := reg.Snapshot()
	if leases, quarantined := m.Value("shard.net.leases"), m.Value("shard.net.quarantined"); leases < 4 || quarantined != 0 {
		t.Fatalf("pool leased %v times and quarantined %v endpoints: want >=4 clean leases across two joins", leases, quarantined)
	}
}

func TestShardJoinDegradesToLocalWorkers(t *testing.T) {
	r, s := testData()
	want := serialPairs(t, r, s)
	pool, err := shard.NewPool(shard.PoolConfig{
		Endpoints:       []string{deadAddr(t)},
		DialTimeout:     200 * time.Millisecond,
		QuarantineAfter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfg := shardConfig(t, 2)
	cfg.Pool = pool
	var got []geom.Pair
	res, err := shard.Join(r, s, cfg, func(p geom.Pair) { got = append(got, p) })
	if err != nil {
		t.Fatalf("join with a dead fleet: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("degraded: %d results, serial %d: set or emission order diverged", len(got), len(want))
	}
	if res.Stats.Degraded != res.Stats.Shards {
		t.Fatalf("Degraded=%d, want every one of %d shards", res.Stats.Degraded, res.Stats.Shards)
	}
	if res.Stats.Spawns < res.Stats.Shards {
		t.Fatalf("Spawns=%d after degradation, want >= %d", res.Stats.Spawns, res.Stats.Shards)
	}
	if res.Stats.RemoteLeases != 0 {
		t.Fatalf("RemoteLeases=%d against a dead fleet", res.Stats.RemoteLeases)
	}
	// Degradation consumed no restarts: the ladder fell rungs, not
	// retries.
	if res.Stats.Restarts != 0 || res.Stats.Kills != 0 {
		t.Fatalf("degradation burned fault budget: %+v", res.Stats)
	}
}

func TestShardJoinTCPConnFaultRetries(t *testing.T) {
	// One scripted mid-stream reset: the coordinator's read of the pairs
	// stream tears mid-frame. The disconnect must round-trip like a
	// worker exit — a kill, a restart, and an identical final sequence.
	r, s := testData()
	want := serialPairs(t, r, s)
	// 512 bytes: past every lease ping (9 bytes each, all at the start —
	// shards launch concurrently) and safely inside the worker's reply
	// stream, which totals well under 1 KiB per shard here.
	pol := netfault.New(netfault.Config{ResetReadAt: 512, MaxFaults: 1})
	pool, err := shard.NewPool(shard.PoolConfig{Endpoints: residentWorkers(t, 2), Dial: pol.WrapDial(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfg := shardConfig(t, 2)
	cfg.Pool = pool
	var got []geom.Pair
	res, err := shard.Join(r, s, cfg, func(p geom.Pair) { got = append(got, p) })
	if err != nil {
		t.Fatalf("join with injected reset: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("conn fault: %d results, serial %d: set or emission order diverged", len(got), len(want))
	}
	if pol.Stats().ReadResets != 1 {
		t.Fatalf("injected %d resets, want exactly 1", pol.Stats().ReadResets)
	}
	if res.Stats.Kills != 1 || res.Stats.Restarts != 1 {
		t.Fatalf("stats %+v: a mid-frame disconnect must count as one kill and one restart, like a process exit", res.Stats)
	}
	if res.Stats.Degraded != 0 {
		t.Fatalf("a single torn connection degraded %d shards; only ConnectError may degrade", res.Stats.Degraded)
	}
}
