package pbsm

import (
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/sched"
)

// PlanGridFor is the planner Join and the shard coordinator run: PlanGrid's
// grid — same P, same tiles — with the table refilled from the data. The
// paper's caveat (§3.2.3) is that formula (1) assumes uniform data; on
// skewed input the hash puts several hot tiles into one partition and the
// join phase pays for it in repartitioning. Both inputs are in-memory
// slices, so the planner can afford the exact answer instead of a sample:
// it counts, for every tile, the records of R and S overlapping it (two
// scheduler units, summed — the same histogram at every Config.Parallel)
// and packs the tiles onto the P partitions by sched.PackLPT. No RNG, no
// sample, no I/O; a tile hotter than Memory still overflows its partition
// and repartitions through the unchanged fallback (counted in
// pbsm.plan.oversized.tiles).
//
// With P = 1 there is nothing to plan, and Config.HashTiles asks for the
// paper's plan: both return PlanGrid's spec untouched. The work runs under a
// "plan" child span of cfg.Trace. Beyond PlanGrid's fields, cfg.Parallel,
// Cancel, Trace and Metrics are consulted.
func PlanGridFor(R, S []geom.KPE, cfg Config) (GridSpec, error) {
	gs := PlanGrid(len(R), len(S), cfg)
	if gs.Parts == 1 || cfg.HashTiles {
		return gs, nil
	}
	sp := cfg.Trace.Child("plan")
	defer sp.End()
	sp.AddRecords(int64(len(R) + len(S)))

	g := gs.grid()
	tiles := gs.NX * gs.NY
	inputs := [2][]geom.KPE{R, S}
	var counts [2][]float64
	err := sched.Run(2, sched.Options{
		Workers: cfg.Parallel,
		Name:    "plan-input",
		Span:    sp,
		Cancel:  cfg.Cancel,
		Metrics: cfg.Metrics,
	}, func(_, i int) (err error) {
		counts[i], err = g.tileCounts(inputs[i], cfg.Cancel)
		return err
	})
	if err != nil {
		return GridSpec{}, joinerr.Wrap("pbsm", PhasePartition.String(), err)
	}
	weights, hot, oversized := counts[0], 0.0, int64(0)
	for t := range weights {
		weights[t] += counts[1][t]
		hot = max(hot, weights[t])
		if int64(weights[t])*geom.KPESize > cfg.Memory {
			oversized++
		}
	}

	gs.Assign = make([]int32, tiles)
	heaviest := 0.0
	for part, ts := range sched.PackLPT(weights, gs.Parts) {
		load := 0.0
		for _, t := range ts {
			gs.Assign[t] = int32(part)
			load += weights[t]
		}
		heaviest = max(heaviest, load)
	}
	sp.SetAttr("tiles", int64(tiles))
	sp.SetAttr("parts", int64(gs.Parts))
	sp.SetAttr("hot_tile_records", int64(hot))
	sp.SetAttr("max_partition_bytes", int64(heaviest)*geom.KPESize)
	cfg.Metrics.Counter(metPlanOversizedTiles).Add(oversized)
	return gs, nil
}

// tileCounts returns, for every tile of g, how many records of ks have a
// rectangle overlapping it — the copies a partition owning only that tile
// would receive. A partition's load is at most the sum over its tiles (a
// record overlapping two of them is written once).
func (g *grid) tileCounts(ks []geom.KPE, chk *govern.Check) ([]float64, error) {
	counts := make([]float64, g.nx*g.ny)
	st := chk.Stride()
	for i := range ks {
		if err := st.Point(); err != nil {
			return nil, err
		}
		x0, x1, y0, y1 := g.tileRange(ks[i].Rect)
		for iy := y0; iy <= y1; iy++ {
			for t := iy*g.nx + x0; t <= iy*g.nx+x1; t++ {
				counts[t]++
			}
		}
	}
	return counts, nil
}
