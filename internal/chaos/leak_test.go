// Temp-file leak regression: before the per-join registries, error paths
// could return without deleting partition/run files, leaking simulated
// disk space across failed joins. This harness forces failures with
// hostile fault schedules and asserts the disk is empty after every run,
// failed or not — the registry sweep must fire on all exits.
package chaos

import (
	"errors"
	"testing"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/joinerr"
)

// TestNoTempFileLeakOnFailure: under a fault schedule hostile enough to
// fail most runs, no run — completed or failed — may leave a file on the
// disk. The sweep is vacuous unless failures actually occurred.
func TestNoTempFileLeakOnFailure(t *testing.T) {
	for _, v := range variants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			failed := 0
			// 25 seeds; parallel variants draw their faults in the order
			// the workers reach the disk, so which seeds fail there is a
			// matter of timing, and once in ~30 runs none of the 25 did.
			// Such a run goes on, to a cap, until the sweep is not vacuous.
			for seed := int64(1); seed <= 25 || failed == 0 && seed <= 100; seed++ {
				d := diskio.NewDisk(4096, 20, time.Microsecond)
				// Heavy silent corruption defeats the retry budget and the
				// healing path often enough to exercise many error exits.
				d.SetFaultPolicy(diskio.NewFaultPolicy(diskio.FaultConfig{
					Seed:          seed,
					TornWriteRate: 0.03,
					BitFlipRate:   0.03,
				}))
				cfg := v.cfg
				cfg.Memory = memory
				cfg.Disk = d
				R, S := dataset()
				_, _, err := core.Collect(R, S, cfg)
				if err != nil {
					var je *joinerr.JoinError
					if !errors.As(err, &je) {
						t.Fatalf("seed %d: unstructured error %T: %v", seed, err, err)
					}
					failed++
				}
				if got := d.NumFiles(); got != 0 {
					t.Fatalf("seed %d (err=%v): %d temp files leaked: %v",
						seed, err, got, d.FileNames())
				}
			}
			if failed == 0 {
				t.Fatal("no run failed; leak check vacuous — raise the fault rates")
			}
			t.Logf("%s: %d runs failed, zero leaks", v.name, failed)
		})
	}
}
