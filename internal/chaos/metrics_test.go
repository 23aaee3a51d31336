// Metrics reconciliation under chaos: the live metrics layer must agree
// exactly with the two observability systems that already exist — the
// per-join Result/Stats accounting and the trace's instant events —
// even while the fault injector is forcing retries, heals, worker kills
// and restarts. A metrics layer that drifts under pressure is worse
// than none: it would be trusted precisely when it lies.
package chaos

import (
	"testing"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/shard"
	"spatialjoin/internal/trace"
)

// TestMetricsReconcileWithResultStats runs faulty PBSM joins with a
// registry and a recorder attached and requires every successful run's
// snapshot delta to equal the join's own Result accounting — disk
// requests and retries, healed partitions, suppressed duplicates, and a
// progress fraction parked at exactly 1 — and the trace of the same join
// to show one "retry" instant per retry and one "heal" span per heal.
func TestMetricsReconcileWithResultStats(t *testing.T) {
	reg := metrics.New()
	v := variant{"pbsm-parallel", core.Config{Method: core.PBSM, Parallel: 4}}
	R, S := dataset()

	reconciled, healedRuns := 0, 0
	for seed := int64(1); seed <= 25; seed++ {
		d := diskio.NewDisk(4096, 20, time.Microsecond)
		d.SetFaultPolicy(diskio.NewFaultPolicy(faultConfig(seed)))
		cfg := v.cfg
		cfg.Memory = memory
		cfg.Disk = d
		cfg.Metrics = reg
		rec := trace.New()
		cfg.Trace = rec
		before := reg.Snapshot()
		_, res, err := core.Collect(R, S, cfg)
		if err != nil {
			continue // clean failure; nothing to reconcile against
		}
		delta := reg.Snapshot().Sub(before)

		check := func(name string, want int64) {
			t.Helper()
			if got := delta.Value(name); got != float64(want) {
				t.Fatalf("seed %d: metric %s delta %.0f, want %d", seed, name, got, want)
			}
		}
		check("diskio.retries", res.IO.Retries)
		check("diskio.read.requests", res.IO.ReadRequests)
		check("diskio.write.requests", res.IO.WriteRequests)
		check("pbsm.healed", int64(res.PBSMStats.Healed))
		check("pbsm.dup.suppressed", res.PBSMStats.RawResults-res.PBSMStats.Results)
		check("core.joins.completed", 1)
		check("diskio.retries", int64(countSpans(rec, "retry")))
		check("pbsm.healed", int64(countSpans(rec, "heal")))
		if frac := reg.Snapshot().Value(metrics.JoinProgressFraction); frac != 1 {
			t.Fatalf("seed %d: progress fraction %v after a completed join, want exactly 1", seed, frac)
		}
		if res.PBSMStats.Healed > 0 {
			healedRuns++
		}
		reconciled++
	}
	if reconciled == 0 {
		t.Fatal("no run survived its fault schedule; reconciliation was vacuous")
	}
	if healedRuns == 0 {
		t.Log("note: no surviving run healed a partition (heal counter only reconciled at zero)")
	}
	t.Logf("reconciled %d/25 runs (%d with heals)", reconciled, healedRuns)
}

// TestShardMetricsReconcileWithTrace SIGKILLs one worker mid-stream and
// requires the shard metrics to agree with both the coordinator's Stats
// and the trace's kill/retry instants (assertViewsAgree: same kills, same
// restarts, one recovery observation per closed failure window), and one
// seal per partition.
func TestShardMetricsReconcileWithTrace(t *testing.T) {
	reg := metrics.New()
	cfg := shardChaosConfig(t, 2)
	cfg.Chaos = &shard.ChaosSpec{Kills: []shard.ChaosKill{
		{Shard: 0, Attempt: 1, Kill: shard.KillSpec{Point: shard.KillMidPairs, AfterParts: 1}},
	}}
	rec := trace.New()
	cfg.Trace = rec
	cfg.Metrics = reg

	before := reg.Snapshot()
	R, S := dataset()
	res, err := shard.Join(R, S, cfg, func(geom.Pair) {})
	if err != nil {
		t.Fatalf("join did not self-heal: %v", err)
	}
	assertViewsAgree(t, "kill", res.Stats, reg.Snapshot().Sub(before), rec)
	if res.Stats.Seals != res.Stats.Partitions {
		t.Fatalf("%d seals, want one per partition (%d)", res.Stats.Seals, res.Stats.Partitions)
	}
}
