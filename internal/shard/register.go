package shard

import (
	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
)

// Importing package shard installs the multi-process executor behind
// core.Config.Shards. The registration inversion exists because shard
// imports core's sibling packages and core must stay free of process
// management; linking shard in is the opt-in.
func init() {
	core.RegisterSharder(coreJoin)
}

// coreJoin adapts core.Config to the coordinator and the coordinator's
// result back to core.Result.
func coreJoin(R, S []geom.KPE, cfg core.Config, emit func(geom.Pair)) (core.Result, error) {
	res, err := Join(R, S, Config{
		Shards:            cfg.Shards,
		Endpoints:         cfg.ShardEndpoints,
		Memory:            cfg.Memory,
		Algorithm:         cfg.Algorithm,
		Dup:               cfg.PBSMDup,
		TuneFactor:        cfg.PBSMTuneFactor,
		TilesPerPartition: cfg.PBSMTilesPerPartition,
		BufPages:          cfg.BufPages,
		PageSize:          cfg.PageSize,
		PT:                cfg.PT,
		Transfer:          cfg.Transfer,
		Trace:             cfg.Trace,
		Metrics:           cfg.Metrics,
		Ctx:               cfg.Ctx,
	}, emit)
	if err != nil {
		return core.Result{}, err
	}
	return core.Result{
		Method:  core.PBSM,
		Results: res.Results,
		IO:      res.IO,
		CPU:     res.CPU,
		IOTime:  res.IOTime,
		Total:   res.Total,
	}, nil
}
