package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
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

// checkJoin runs cfg on (R, S) and compares the result set against the
// oracle, also asserting duplicate-freeness.
func checkJoin(t *testing.T, R, S []geom.KPE, cfg Config) Result {
	t.Helper()
	want := jointest.Naive(R, S)
	got, res, err := Collect(R, S, cfg)
	if err != nil {
		t.Fatalf("Join failed: %v", err)
	}
	seen := make(map[geom.Pair]bool, len(got))
	for _, p := range got {
		if seen[p] {
			t.Fatalf("duplicate pair %v in response set", p)
		}
		seen[p] = true
	}
	jointest.SortPairs(got)
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if res.Results != int64(len(want)) {
		t.Fatalf("Result.Results = %d, want %d", res.Results, len(want))
	}
	return res
}

// configsUnderTest enumerates every method/algorithm/dup-mode combination
// the library offers.
func configsUnderTest(memory int64) []Config {
	var cfgs []Config
	for _, alg := range []sweep.Kind{sweep.NestedLoopsKind, sweep.ListKind, sweep.TrieKind} {
		for _, dup := range []pbsm.DupMethod{pbsm.DupRPM, pbsm.DupSort} {
			cfgs = append(cfgs, Config{Method: PBSM, Memory: memory, Algorithm: alg, PBSMDup: dup})
		}
		for _, mode := range []s3j.Mode{s3j.ModeOriginal, s3j.ModeReplicate} {
			cfgs = append(cfgs, Config{Method: S3J, Memory: memory, Algorithm: alg, S3JMode: mode})
		}
		cfgs = append(cfgs, Config{Method: SHJ, Memory: memory, Algorithm: alg})
		if alg != sweep.NestedLoopsKind { // SSSJ sweeps the whole space: no nested loops
			cfgs = append(cfgs, Config{Method: SSSJ, Memory: memory, Algorithm: alg})
		}
	}
	return cfgs
}

func configName(c Config) string {
	switch c.Method {
	case S3J:
		return fmt.Sprintf("s3j/%s/%s", c.S3JMode, c.Algorithm)
	case SSSJ, SHJ:
		return fmt.Sprintf("%s/%s", c.Method, c.Algorithm)
	default:
		return fmt.Sprintf("pbsm/%s/%s", c.PBSMDup, c.Algorithm)
	}
}

func TestAllMethodsMatchOracleSmall(t *testing.T) {
	R := datagen.Uniform(1, 300, 0.05)
	S := datagen.Uniform(2, 300, 0.05)
	for _, cfg := range configsUnderTest(8 * 1024) { // tiny memory: forces partitioning
		cfg := cfg
		t.Run(configName(cfg), func(t *testing.T) {
			checkJoin(t, R, S, cfg)
		})
	}
}

func TestAllMethodsMatchOracleClustered(t *testing.T) {
	R := datagen.LARR(7, 800).KPEs
	S := datagen.LAST(8, 800).KPEs
	for _, cfg := range configsUnderTest(16 * 1024) {
		cfg := cfg
		t.Run(configName(cfg), func(t *testing.T) {
			checkJoin(t, R, S, cfg)
		})
	}
}

func TestSelfJoinMatchesOracle(t *testing.T) {
	R := datagen.Uniform(3, 400, 0.03)
	for _, cfg := range configsUnderTest(8 * 1024) {
		cfg := cfg
		t.Run(configName(cfg), func(t *testing.T) {
			checkJoin(t, R, R, cfg)
		})
	}
}

func TestLargeMemorySinglePartition(t *testing.T) {
	R := datagen.Uniform(4, 200, 0.05)
	S := datagen.Uniform(5, 200, 0.05)
	for _, cfg := range configsUnderTest(64 << 20) { // everything fits in memory
		cfg := cfg
		t.Run(configName(cfg), func(t *testing.T) {
			checkJoin(t, R, S, cfg)
		})
	}
}

// TestEmissionSequenceInvariantUnderParallel checks the scheduler's
// determinism contract at the library surface: for every configuration
// the pairs arrive in the same order — not merely as the same set — at
// every worker count.
func TestEmissionSequenceInvariantUnderParallel(t *testing.T) {
	R := datagen.Uniform(52, 1500, 0.003)
	S := datagen.Uniform(53, 1500, 0.003)
	memory := int64(0.15 * float64((len(R)+len(S))*geom.KPESize))
	for _, cfg := range configsUnderTest(memory) {
		cfg := cfg
		t.Run(configName(cfg), func(t *testing.T) {
			cfg.Parallel = 1
			serial, _, err := Collect(R, S, cfg)
			if err != nil {
				t.Fatalf("serial join failed: %v", err)
			}
			if len(serial) == 0 {
				t.Fatal("input produced no results; the comparison is vacuous")
			}
			for _, workers := range []int{2, 4, 8} {
				cfg.Parallel = workers
				got, _, err := Collect(R, S, cfg)
				if err != nil {
					t.Fatalf("Parallel=%d: join failed: %v", workers, err)
				}
				if len(got) != len(serial) {
					t.Fatalf("Parallel=%d: %d results, serial run has %d", workers, len(got), len(serial))
				}
				for i := range got {
					if got[i] != serial[i] {
						t.Fatalf("Parallel=%d: result %d is %v, serial run has %v", workers, i, got[i], serial[i])
					}
				}
			}
		})
	}
}

func TestEmptyInputs(t *testing.T) {
	R := datagen.Uniform(6, 50, 0.05)
	for _, cfg := range configsUnderTest(8 * 1024) {
		cfg := cfg
		t.Run(configName(cfg), func(t *testing.T) {
			checkJoin(t, nil, R, cfg)
			checkJoin(t, R, nil, cfg)
			checkJoin(t, nil, nil, cfg)
		})
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Join(nil, nil, Config{}, func(geom.Pair) {}); err == nil {
		t.Fatal("want error for zero Memory")
	}
	if _, err := Join(nil, nil, Config{Memory: 1 << 20, Method: "bogus"}, func(geom.Pair) {}); err == nil {
		t.Fatal("want error for unknown method")
	}
	// An unknown internal algorithm is refused up front, before a shard
	// worker could see it: sweep.New would run it as the list sweep.
	for _, cfg := range []Config{{Memory: 1 << 20, Algorithm: "tri"}, {Memory: 1 << 20, Algorithm: "tri", Shards: 2}} {
		_, err := Join(nil, nil, cfg, func(geom.Pair) {})
		var je *joinerr.JoinError
		if !errors.As(err, &je) || je.Phase != "config" || !strings.Contains(err.Error(), `"trie"`) {
			t.Fatalf("Algorithm %q, Shards %d: got %v, want a config error naming the valid kinds", cfg.Algorithm, cfg.Shards, err)
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
	jointest.SortPairs(got)
	if len(got) != len(want) {
		t.Fatalf("iterator yielded %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: got %v want %v", i, got[i], want[i])
		}
	}
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
