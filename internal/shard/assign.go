package shard

import (
	"sort"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/plan"
)

// assignShards distributes the top-level partitions over n shards by
// longest-processing-time bin packing on the cost model's per-pair
// estimate (a partition's load is the length of its derived R and S
// slices): partitions sorted by descending predicted cost, each placed
// on the currently lightest shard. Ties break toward the lower
// partition index and the lower shard index, so the assignment is a
// pure function of (costs, n) — a restarted coordinator run reassigns
// identically. Each shard's partition list comes back ascending: the
// worker executes — and seals — in partition index order, which is what
// lets the coordinator's collector stream the earliest unfinished
// partition with minimal buffering.
func assignShards(rsl, ssl map[int][]geom.KPE, memory int64, dev plan.Device, n int) [][]int {
	parts := len(rsl)
	if n > parts {
		n = parts
	}
	if n < 1 {
		n = 1
	}
	type pc struct {
		part int
		cost float64
	}
	order := make([]pc, parts)
	for i := range order {
		order[i] = pc{part: i, cost: plan.PairCost(int64(len(rsl[i])), int64(len(ssl[i])), memory, dev)}
	}
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].cost != order[b].cost {
			return order[a].cost > order[b].cost
		}
		return order[a].part < order[b].part
	})
	loads := make([]float64, n)
	out := make([][]int, n)
	for _, o := range order {
		best := 0
		for s := 1; s < n; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		loads[best] += o.cost
		out[best] = append(out[best], o.part)
	}
	for _, ps := range out {
		sort.Ints(ps)
	}
	return out
}
