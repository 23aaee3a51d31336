package core

import (
	"context"
	"errors"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/jointest"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/s3j"
	"spatialjoin/internal/sweep"
)

// checkJoin runs cfg on (R, S) and fails unless it delivers the
// oracle's pairs, each once, and counts them in Result.Results.
func checkJoin(t *testing.T, R, S []geom.KPE, cfg Config) Result {
	t.Helper()
	want := jointest.Naive(R, S)
	got, res, err := Collect(R, S, cfg)
	if err != nil {
		t.Fatalf("Join failed: %v", err)
	}
	jointest.AssertEqual(t, got, want)
	if res.Results != int64(len(want)) {
		t.Fatalf("Result.Results = %d, want %d", res.Results, len(want))
	}
	return res
}

// TestConfigValidation: each config is refused with a config joinerr.
// The sharded rows are refused before Join looks for the shard
// executor, so they need no worker.
func TestConfigValidation(t *testing.T) {
	const mem = 1 << 20
	for name, cfg := range map[string]Config{
		"zero Memory":                 {},
		"unknown method":              {Memory: mem, Method: "bogus"},
		"shards=2 with DupSort":       {Memory: mem, Shards: 2, PBSMDup: pbsm.DupSort},
		"shards=2 with unknown dup":   {Memory: mem, Shards: 2, PBSMDup: 9},
		"shards=2 with PBSMHashTiles": {Memory: mem, Shards: 2, PBSMHashTiles: true},
	} {
		_, err := Join(nil, nil, cfg, func(geom.Pair) {})
		var je *joinerr.JoinError
		if !errors.As(err, &je) || je.Phase != "config" {
			t.Errorf("%s: got %v, want a config joinerr", name, err)
		}
	}
}

func TestIteratorDeliversAllResults(t *testing.T) {
	R := datagen.Uniform(9, 300, 0.05)
	S := datagen.Uniform(10, 300, 0.05)
	want := jointest.Naive(R, S)
	it := Open(R, S, Config{Method: PBSM, Memory: 8 * 1024})
	var got []geom.Pair
	for {
		p, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, p)
	}
	it.Close()
	if err := it.Err(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	jointest.AssertEqual(t, got, want)
	if r := it.Result(); r.Results != int64(len(want)) {
		t.Fatalf("Result.Results = %d, want %d", r.Results, len(want))
	}
}

func TestIteratorWorksForEveryMethod(t *testing.T) {
	R := datagen.Uniform(15, 200, 0.05)
	S := datagen.Uniform(16, 200, 0.05)
	want := int64(len(jointest.Naive(R, S)))
	for _, m := range []Method{PBSM, S3J, SSSJ, SHJ} {
		it := Open(R, S, Config{Method: m, Memory: 8 * 1024})
		var n int64
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		it.Close()
		if err := it.Err(); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if n != want {
			t.Fatalf("%s: iterator yielded %d, want %d", m, n, want)
		}
	}
}

func TestIteratorEarlyClose(t *testing.T) {
	R := datagen.Uniform(11, 500, 0.08)
	S := datagen.Uniform(12, 500, 0.08)
	it := Open(R, S, Config{Method: PBSM, Memory: 8 * 1024})
	if _, ok := it.Next(); !ok {
		t.Fatal("expected at least one result")
	}
	it.Close() // must not deadlock
	if err := it.Err(); err != nil {
		t.Fatalf("unexpected error after early close: %v", err)
	}
}

func TestStatsArePopulated(t *testing.T) {
	R := datagen.Uniform(13, 400, 0.05)
	S := datagen.Uniform(14, 400, 0.05)

	_, res, err := Collect(R, S, Config{Method: PBSM, Memory: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if res.PBSMStats == nil || res.S3JStats != nil {
		t.Fatal("PBSM result must carry PBSMStats only")
	}
	if res.PBSMStats.P < 2 {
		t.Fatalf("expected multiple partitions at 8KB memory, got P=%d", res.PBSMStats.P)
	}
	if res.IO.PagesWritten == 0 || res.IO.PagesRead == 0 {
		t.Fatal("partitioned join must perform I/O")
	}
	if res.Total < res.IOTime || res.Total < res.CPU {
		t.Fatal("Total must dominate both components")
	}

	_, res, err = Collect(R, S, Config{Method: S3J, Memory: 8 * 1024, S3JMode: s3j.ModeReplicate})
	if err != nil {
		t.Fatal(err)
	}
	if res.S3JStats == nil || res.PBSMStats != nil {
		t.Fatal("S3J result must carry S3JStats only")
	}
	if res.S3JStats.CopiesR <= int64(len(R))/2 {
		t.Fatalf("implausible replication count %d", res.S3JStats.CopiesR)
	}
}

// TestRegistryHoldsEveryMethodTotal: the counts a join reports in its
// Stats are readable from the registry under the series names the trace
// recorder once kept — sweep work per algorithm, RPM tests, S³J copies
// per level, the three fill distributions, the sort's runs, the
// checkpoints. (core.joins.aborted is chaos.TestCanceledJoinTrace's.)
func TestRegistryHoldsEveryMethodTotal(t *testing.T) {
	R := datagen.Uniform(13, 400, 0.05)
	S := datagen.Uniform(14, 400, 0.05)
	join := func(cfg Config) (Result, metrics.Snapshot) {
		t.Helper()
		cfg.Memory, cfg.Algorithm, cfg.Metrics = 8*1024, sweep.ListKind, metrics.New()
		cfg.Ctx = context.Background()
		_, res, err := Collect(R, S, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, cfg.Metrics.Snapshot()
	}
	sum := func(d metrics.Snapshot, name string) (total float64) {
		for _, p := range d.Points {
			if p.Name == name {
				total += p.Value
			}
		}
		return total
	}
	check := func(name string, got float64, want int64) {
		t.Helper()
		if got != float64(want) {
			t.Errorf("%s = %v, Stats say %d", name, got, want)
		}
	}

	res, d := join(Config{Method: PBSM, PBSMDup: pbsm.DupRPM})
	ps := res.PBSMStats
	check("pbsm.sweep.tests", d.Value("pbsm.sweep.tests"), ps.Tests)
	check("pbsm.sweep.touches", d.ValueL("pbsm.sweep.touches", "list"), ps.Touches)
	check("pbsm.rpm.tests", d.Value("pbsm.rpm.tests"), ps.RawResults)
	check("pbsm.dup.suppressed", d.Value("pbsm.dup.suppressed"), ps.RawResults-ps.Results)
	check("pbsm.partition.fill count", float64(d.Hist("pbsm.partition.fill").Count), int64(ps.P))
	check("pbsm.partition.fill sum", d.Hist("pbsm.partition.fill").Sum, ps.CopiesR+ps.CopiesS)
	if ps.Tests == 0 || d.Value("core.cancel.checks") <= 0 {
		t.Errorf("vacuous: %d sweep tests, %v core.cancel.checks", ps.Tests, d.Value("core.cancel.checks"))
	}

	res, d = join(Config{Method: S3J, S3JMode: s3j.ModeReplicate})
	ss := res.S3JStats
	check("s3j.sweep.tests", d.Value("s3j.sweep.tests"), ss.Tests)
	check("s3j.sweep.touches", d.ValueL("s3j.sweep.touches", "list"), ss.Touches)
	check("s3j.copies.level", sum(d, "s3j.copies.level"), ss.CopiesR+ss.CopiesS)
	check("s3j.level.fill count", float64(d.Hist("s3j.level.fill").Count), int64(len(ss.LevelRecordsR)))

	res, d = join(Config{Method: SHJ})
	check("shj.sweep.tests", d.Value("shj.sweep.tests"), res.SHJStats.Tests)
	check("shj.sweep.touches", d.ValueL("shj.sweep.touches", "list"), res.SHJStats.Touches)
	check("shj.bucket.fill count", float64(d.Hist("shj.bucket.fill").Count), int64(res.SHJStats.Buckets))

	res, d = join(Config{Method: SSSJ})
	check("sssj.sweep.tests", d.Value("sssj.sweep.tests"), res.SSSJStats.Tests)
	check("sssj.sweep.touches", d.ValueL("sssj.sweep.touches", "list"), res.SSSJStats.Touches)
	check("sssj.sort.runs", d.Value("sssj.sort.runs"), int64(res.SSSJStats.SortRuns))

}
