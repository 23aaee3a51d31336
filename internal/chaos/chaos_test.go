// Package chaos is a fault-injection test harness for the four join
// methods. It sweeps seeded, deterministic fault schedules — transient
// read/write errors, torn writes, bit flips, latency spikes — across
// PBSM (sequential, parallel and original-DupSort), S³J, SSSJ and SHJ,
// and asserts the only two acceptable outcomes:
//
//   - the join completes and its result set is EXACTLY the fault-free
//     result set (transparent retry / self-healing), or
//   - the join fails with a clean, structured JoinError naming method
//     and phase.
//
// Wrong answers, panics, hangs and goroutine leaks are all failures.
package chaos

import (
	"errors"
	"runtime"
	"sort"
	"testing"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/trace"
)

const (
	nRecs    = 2000
	memory   = 64 << 10 // small enough for several partitions per join
	schedule = 50       // seeded fault schedules per variant
)

func dataset() (R, S []geom.KPE) {
	return datagen.Uniform(101, nRecs, 0.004), datagen.Uniform(202, nRecs, 0.004)
}

// variant is one join configuration under test.
type variant struct {
	name string
	cfg  core.Config
}

func variants() []variant {
	return []variant{
		// Serial variants pin Parallel: 1 so the sweep keeps explicit
		// coverage of the inline path regardless of GOMAXPROCS.
		{"pbsm", core.Config{Method: core.PBSM, Parallel: 1}},
		// The shared-scheduler twins: every method's parallel phases
		// under fault injection, cancellation, and the race detector.
		{"pbsm-parallel", core.Config{Method: core.PBSM, Parallel: 4}},
		{"pbsm-dupsort", core.Config{Method: core.PBSM, PBSMDup: pbsm.DupSort, Parallel: 1}},
		{"pbsm-dupsort-parallel", core.Config{Method: core.PBSM, PBSMDup: pbsm.DupSort, Parallel: 4}},
		{"s3j", core.Config{Method: core.S3J, Parallel: 1}},
		{"s3j-parallel", core.Config{Method: core.S3J, Parallel: 4}},
		{"sssj", core.Config{Method: core.SSSJ, Parallel: 1}},
		{"shj", core.Config{Method: core.SHJ, Parallel: 1}},
		{"shj-parallel", core.Config{Method: core.SHJ, Parallel: 4}},
	}
}

func runOnce(v variant, fp *diskio.FaultPolicy) ([]geom.Pair, core.Result, error) {
	d := diskio.NewDisk(4096, 20, time.Microsecond)
	if fp != nil {
		d.SetFaultPolicy(fp)
	}
	cfg := v.cfg
	cfg.Memory = memory
	cfg.Disk = d
	R, S := dataset()
	return core.Collect(R, S, cfg)
}

func sortPairs(ps []geom.Pair) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}

func equalPairs(a, b []geom.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// faultConfig derives one of three fault regimes from the seed, so the
// sweep covers retryable-only, silent-corruption-only and mixed
// schedules.
func faultConfig(seed int64) diskio.FaultConfig {
	cfg := diskio.FaultConfig{Seed: seed}
	switch seed % 3 {
	case 0: // transient-only: must always be survivable
		cfg.TransientReadRate = 0.05
		cfg.TransientWriteRate = 0.05
	case 1: // silent corruption: must be detected, healed or failed cleanly
		cfg.TornWriteRate = 0.008
		cfg.BitFlipRate = 0.008
		cfg.LatencyRate = 0.05
	default: // everything at once
		cfg.TransientReadRate = 0.03
		cfg.TransientWriteRate = 0.03
		cfg.TornWriteRate = 0.005
		cfg.BitFlipRate = 0.005
		cfg.LatencyRate = 0.03
	}
	return cfg
}

// TestChaosSweep is the main harness: ≥50 seeded schedules per variant.
func TestChaosSweep(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, v := range variants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			want, _, err := runOnce(v, nil)
			if err != nil {
				t.Fatalf("fault-free baseline failed: %v", err)
			}
			sortPairs(want)
			if len(want) == 0 {
				t.Fatal("baseline result set empty; sweep would be vacuous")
			}

			completed, failed, healed := 0, 0, 0
			var retries int64
			for seed := int64(1); seed <= schedule; seed++ {
				fp := diskio.NewFaultPolicy(faultConfig(seed))
				got, res, err := runOnce(v, fp)
				if err != nil {
					var je *joinerr.JoinError
					if !errors.As(err, &je) {
						t.Fatalf("seed %d: unstructured error %T: %v", seed, err, err)
					}
					if je.Method == "" || je.Phase == "" {
						t.Fatalf("seed %d: JoinError missing attribution: %+v", seed, je)
					}
					failed++
					continue
				}
				sortPairs(got)
				if !equalPairs(got, want) {
					t.Fatalf("seed %d: WRONG ANSWER under faults: %d pairs, want %d (schedule %+v)",
						seed, len(got), len(want), fp.Stats())
				}
				completed++
				retries += res.IO.Retries
				if res.PBSMStats != nil {
					healed += res.PBSMStats.Healed
				}
			}
			t.Logf("%s: %d completed (retries=%d, healed=%d), %d failed cleanly",
				v.name, completed, retries, healed, failed)
			if completed == 0 {
				t.Fatal("no schedule completed; rates are too hostile for the sweep to mean anything")
			}
		})
	}

	// The whole sweep must wind down every producer/worker goroutine.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak after chaos sweep: %d > %d", g, before)
	}
}

// TestTransientOnlySchedulesAlwaysComplete: retryable faults must never
// surface — every transient-only schedule completes with the exact
// result, and the retries show up in Result.IO.
func TestTransientOnlySchedulesAlwaysComplete(t *testing.T) {
	for _, v := range variants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			want, _, err := runOnce(v, nil)
			if err != nil {
				t.Fatal(err)
			}
			sortPairs(want)
			var retries, faults int64
			for seed := int64(1); seed <= 15; seed++ {
				fp := diskio.NewFaultPolicy(diskio.FaultConfig{
					Seed:               seed,
					TransientReadRate:  0.15,
					TransientWriteRate: 0.15,
				})
				got, res, err := runOnce(v, fp)
				if err != nil {
					t.Fatalf("seed %d: transient-only schedule must succeed, got %v (faults %+v)",
						seed, err, fp.Stats())
				}
				sortPairs(got)
				if !equalPairs(got, want) {
					t.Fatalf("seed %d: wrong answer under transient faults", seed)
				}
				retries += res.IO.Retries
				faults += fp.Stats().Total()
			}
			if faults == 0 {
				t.Fatal("sweep vacuous: no transient fault fired across 15 seeds")
			}
			if retries == 0 {
				t.Fatal("no retry was counted in Result.IO across 15 faulty runs")
			}
		})
	}
}

// TestPBSMHealsCorruptPartitions: across a bit-flip sweep, at least one
// PBSM run must detect a corrupt partition file via its checksum,
// re-derive the partition pair from the base inputs, and still produce
// the exact result set.
func TestPBSMHealsCorruptPartitions(t *testing.T) {
	v := variant{"pbsm", core.Config{Method: core.PBSM}}
	want, _, err := runOnce(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	sortPairs(want)

	healedRuns := 0
	for seed := int64(1); seed <= 40; seed++ {
		fp := diskio.NewFaultPolicy(diskio.FaultConfig{Seed: seed, BitFlipRate: 0.02})
		got, res, err := runOnce(v, fp)
		if err != nil {
			continue // second corruption during the healed retry: clean failure
		}
		sortPairs(got)
		if !equalPairs(got, want) {
			t.Fatalf("seed %d: healed run produced a wrong answer", seed)
		}
		if res.PBSMStats.Healed > 0 {
			healedRuns++
		}
	}
	if healedRuns == 0 {
		t.Fatal("no run healed a corrupt partition; the re-derivation path is untested")
	}
	t.Logf("healed runs: %d/40", healedRuns)
}

// countSpans counts the spans and instants of one name.
func countSpans(rec *trace.Recorder, name string) int {
	n := 0
	for _, sd := range rec.Spans() {
		if sd.Name == name {
			n++
		}
	}
	return n
}

// TestFaultsSurfaceInTrace: the observability layer must show what the
// fault-injection layer does. Every retry the disk performs must appear
// as a "retry" instant event on an attached recorder (count equal to
// Result.IO.Retries), and every healed PBSM partition must appear as a
// "heal" span in the span tree. The registry side of both counts is
// TestMetricsReconcileWithResultStats.
func TestFaultsSurfaceInTrace(t *testing.T) {
	t.Run("retries", func(t *testing.T) {
		var sawRetry bool
		for seed := int64(1); seed <= 15 && !sawRetry; seed++ {
			d := diskio.NewDisk(4096, 20, time.Microsecond)
			d.SetFaultPolicy(diskio.NewFaultPolicy(diskio.FaultConfig{
				Seed:               seed,
				TransientReadRate:  0.15,
				TransientWriteRate: 0.15,
			}))
			rec := trace.New()
			R, S := dataset()
			_, res, err := core.Collect(R, S, core.Config{
				Method: core.PBSM, Memory: memory, Disk: d, Trace: rec,
			})
			if err != nil {
				t.Fatalf("seed %d: transient-only schedule must succeed: %v", seed, err)
			}
			if got := int64(countSpans(rec, "retry")); got != res.IO.Retries {
				t.Fatalf("seed %d: %d retry events != Result.IO.Retries %d", seed, got, res.IO.Retries)
			}
			sawRetry = res.IO.Retries > 0
		}
		if !sawRetry {
			t.Fatal("no retry fired across 15 seeds; assertion vacuous")
		}
	})

	t.Run("heals", func(t *testing.T) {
		var sawHeal bool
		for seed := int64(1); seed <= 40 && !sawHeal; seed++ {
			d := diskio.NewDisk(4096, 20, time.Microsecond)
			d.SetFaultPolicy(diskio.NewFaultPolicy(diskio.FaultConfig{Seed: seed, BitFlipRate: 0.02}))
			rec := trace.New()
			R, S := dataset()
			_, res, err := core.Collect(R, S, core.Config{
				Method: core.PBSM, Memory: memory, Disk: d, Trace: rec,
			})
			if err != nil {
				continue // clean failure; healing did not get a chance
			}
			healSpans := countSpans(rec, "heal")
			if healSpans != res.PBSMStats.Healed {
				t.Fatalf("seed %d: %d heal spans != Stats.Healed %d", seed, healSpans, res.PBSMStats.Healed)
			}
			sawHeal = res.PBSMStats.Healed > 0
		}
		if !sawHeal {
			t.Fatal("no run healed across 40 seeds; assertion vacuous")
		}
	})
}

// TestParallelPBSMHealsToo exercises the healing path inside the worker
// pool, where emission is concurrent.
func TestParallelPBSMHealsToo(t *testing.T) {
	v := variant{"pbsm-parallel", core.Config{Method: core.PBSM, Parallel: 4}}
	want, _, err := runOnce(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	sortPairs(want)
	healedRuns := 0
	for seed := int64(1); seed <= 40; seed++ {
		fp := diskio.NewFaultPolicy(diskio.FaultConfig{Seed: seed, BitFlipRate: 0.02})
		// A recorder is attached so the concurrent per-pair span and heal
		// span paths run under the race detector too.
		d := diskio.NewDisk(4096, 20, time.Microsecond)
		d.SetFaultPolicy(fp)
		cfg := v.cfg
		cfg.Memory = memory
		cfg.Disk = d
		cfg.Trace = trace.New()
		R, S := dataset()
		got, res, err := core.Collect(R, S, cfg)
		if err != nil {
			var je *joinerr.JoinError
			if !errors.As(err, &je) {
				t.Fatalf("seed %d: unstructured parallel error: %v", seed, err)
			}
			continue
		}
		sortPairs(got)
		if !equalPairs(got, want) {
			t.Fatalf("seed %d: parallel healed run produced a wrong answer", seed)
		}
		if res.PBSMStats.Healed > 0 {
			healedRuns++
		}
	}
	if healedRuns == 0 {
		t.Fatal("no parallel run healed a corrupt partition")
	}
}

// hashPairs folds a pair sequence into an order-insensitive set hash
// over the pairs' serialized bytes, so cross-variant agreement is
// asserted on the encoded representation, not just the struct values.
func hashPairs(ps []geom.Pair) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var set uint64
	for _, p := range ps {
		var b [geom.PairSize]byte
		geom.EncodePair(b[:], p)
		h := uint64(offset)
		for _, c := range b {
			h ^= uint64(c)
			h *= prime
		}
		set += h
	}
	return set
}
