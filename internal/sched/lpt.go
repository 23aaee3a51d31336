package sched

import "sort"

// PackLPT distributes weighted items over bins by longest-processing-time
// packing: items in descending weight, ties to the lower item index, each
// placed on the currently lightest bin, ties to the lower bin index. It
// returns, per bin, the indices of its items in placement order. The
// result is a pure function of (weights, bins) — no randomness, no map
// order — so two processes packing the same weights agree. It is the one
// home of the rule: the shard coordinator packs partitions onto shards
// with it, PBSM's planner packs tiles onto partitions. With more bins
// than items the trailing bins stay empty; zero-weight items all land on
// whichever bin is lightest when their turn comes.
func PackLPT(weights []float64, bins int) [][]int {
	if bins < 1 {
		bins = 1
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	loads := make([]float64, bins)
	out := make([][]int, bins)
	for _, item := range order {
		best := 0
		for b := 1; b < bins; b++ {
			if loads[b] < loads[best] {
				best = b
			}
		}
		loads[best] += weights[item]
		out[best] = append(out[best], item)
	}
	return out
}
