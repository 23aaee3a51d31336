package shard

import (
	"sort"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/sched"
)

// assignShards distributes the top-level partitions over n shards by
// longest-processing-time packing (sched.PackLPT, where the tie-breaks
// are written down) on the cost model's per-pair estimate — a
// partition's load is the length of its derived R and S slices — so the
// assignment is a pure function of (costs, n) and a restarted
// coordinator run reassigns identically. Each shard's partition list
// comes back ascending: the worker executes — and seals — in partition
// index order, so the coordinator's merge, which releases sealed
// partitions in index order, holds back as few of them as it can.
func assignShards(rsl, ssl map[int][]geom.KPE, memory int64, dev iocost.Device, n int) [][]int {
	costs := make([]float64, len(rsl))
	for i := range costs {
		costs[i] = iocost.PairCost(int64(len(rsl[i])), int64(len(ssl[i])), memory, dev)
	}
	out := sched.PackLPT(costs, min(n, len(costs))) // n < 1 packs onto one shard
	for _, ps := range out {
		sort.Ints(ps)
	}
	return out
}
