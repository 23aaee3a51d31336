// Package estimate provides sampling-based statistics for spatial joins.
//
// §3.2.3 of the paper notes that computing PBSM's partition count is
// "generally difficult when the input relations do not refer to base
// relations of the underlying DBMS" — intermediate results have no
// catalog statistics. This package supplies the missing pieces: cheap
// samples, join-cardinality and selectivity estimates from sample-level
// joins and a replication-rate estimate for a planned grid, so an
// optimizer can configure the join without scanning the inputs twice.
// (The partition-count formula (1) itself is pbsm.PlanGrid.)
package estimate

import (
	"math/rand"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/sweep"
)

// Sample draws a uniform random sample of n KPEs (without replacement,
// deterministic for a seed). If n ≥ len(ks) the input is returned as is.
func Sample(ks []geom.KPE, n int, seed int64) []geom.KPE {
	if n >= len(ks) {
		return ks
	}
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	// Partial Fisher-Yates over a copy of the index space.
	idx := make([]int, len(ks))
	for i := range idx {
		idx[i] = i
	}
	out := make([]geom.KPE, n)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = ks[idx[i]]
	}
	return out
}

// JoinCardinality estimates the number of results of the full join of
// relations with fullR and fullS elements from a join of the given
// samples. The sample join runs in memory with the list plane sweep.
func JoinCardinality(sampleR, sampleS []geom.KPE, fullR, fullS int) float64 {
	if len(sampleR) == 0 || len(sampleS) == 0 {
		return 0
	}
	rc := append([]geom.KPE(nil), sampleR...)
	sc := append([]geom.KPE(nil), sampleS...)
	var hits int64
	alg := sweep.New(sweep.ListKind)
	alg.Join(rc, sc, func(geom.KPE, geom.KPE) { hits++ })
	scale := float64(fullR) / float64(len(sampleR)) *
		float64(fullS) / float64(len(sampleS))
	return float64(hits) * scale
}

// Selectivity estimates results / (|R|·|S|) from sample joins, the
// measure of the paper's Table 2.
func Selectivity(sampleR, sampleS []geom.KPE, fullR, fullS int) float64 {
	if fullR == 0 || fullS == 0 {
		return 0
	}
	return JoinCardinality(sampleR, sampleS, fullR, fullS) /
		(float64(fullR) * float64(fullS))
}

// ReplicationRate estimates PBSM's copies-per-element for a grid of
// nx × ny tiles from a sample: the average number of tiles a sample
// rectangle overlaps. The estimate drives the trade-off behind NT ≥ P —
// finer tiling balances partitions but replicates more.
func ReplicationRate(sample []geom.KPE, nx, ny int) float64 {
	if len(sample) == 0 || nx < 1 || ny < 1 {
		return 1
	}
	var copies float64
	for _, k := range sample {
		tx := tileSpan(k.Rect.XL, k.Rect.XH, nx)
		ty := tileSpan(k.Rect.YL, k.Rect.YH, ny)
		copies += float64(tx) * float64(ty)
	}
	return copies / float64(len(sample))
}

// tileSpan counts grid columns (or rows) an interval overlaps.
func tileSpan(lo, hi float64, n int) int {
	c := func(v float64) int {
		if v <= 0 {
			return 0
		}
		i := int(v * float64(n))
		if i >= n {
			i = n - 1
		}
		return i
	}
	return c(hi) - c(lo) + 1
}
