package shard

import (
	"encoding/json"
	"reflect"
	"testing"

	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/sweep"
)

// TestJobSpecCarriesEveryPBSMParameter holds the coordinator's and the
// worker's pbsm.Config together: every exported field of pbsm.Config
// either crosses the process boundary in the job frame — set from
// shard.Config, through the JSON, out of JobSpec.pbsmConfig, equal to what
// the coordinator planned with — or is excluded here with the reason. A
// parameter added to pbsm.Config and not shipped fails this test instead
// of letting a worker repartition by a different rule than the
// coordinator planned by.
func TestJobSpecCarriesEveryPBSMParameter(t *testing.T) {
	const perProcess = "per-process handle: coordinator and worker each attach their own"
	excluded := map[string]string{
		"Disk":       perProcess,
		"Trace":      perProcess,
		"Cancel":     perProcess,
		"Metrics":    perProcess,
		"Progress":   perProcess,
		"Parallel":   "per-process: a PairExec runs its pairs on one goroutine; the planner's count is the same at every worker count",
		"HashTiles":  "core.Join rejects PBSMHashTiles with Shards > 1; the sharded executor always plans from the data",
		"MaxRecurse": "a worker runs the default cap; only pbsm's tests lower it",
	}
	// Every shipped parameter gets a value that is neither zero nor the
	// default, so a dropped field cannot pass as an equal one.
	cfg := Config{
		Memory:            1 << 20,
		Algorithm:         sweep.TrieKind,
		Dup:               pbsm.DupTLSP,
		TuneFactor:        1.75,
		TilesPerPartition: 9,
		BufPages:          3,
	}
	raw, err := json.Marshal(cfg.jobSpec(pbsm.GridSpec{}, 0, 1, []int{0}, ""))
	if err != nil {
		t.Fatal(err)
	}
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	coord := reflect.ValueOf(cfg.pbsmConfig(nil))
	worker := reflect.ValueOf(spec.pbsmConfig(nil))
	for i := 0; i < coord.NumField(); i++ {
		name := coord.Type().Field(i).Name
		if _, ok := excluded[name]; ok {
			if !coord.Field(i).IsZero() || !worker.Field(i).IsZero() {
				t.Errorf("pbsm.Config.%s is on the exclusion list but pbsmConfig sets it", name)
			}
			delete(excluded, name)
			continue
		}
		if coord.Field(i).IsZero() {
			t.Errorf("pbsm.Config.%s is neither carried by JobSpec nor excluded with a reason: ship it (shard.Config, JobSpec, both pbsmConfig methods, a value in this test) or say here why a worker does not need it", name)
			continue
		}
		if got, want := worker.Field(i).Interface(), coord.Field(i).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("pbsm.Config.%s: worker gets %v, coordinator planned with %v", name, got, want)
		}
	}
	for name := range excluded {
		t.Errorf("exclusion list names %s, which pbsm.Config does not have", name)
	}
}
