// Package plan predicts the I/O cost of each join method analytically —
// the quantitative version of the paper's §5.1 comparison (Table 3) —
// from nothing but the relation sizes, a sample (Sample), and the device
// parameters. A query optimizer can rank the no-index methods before
// running anything, which is exactly the setting the paper cares about:
// inputs that are intermediate results with no precomputed statistics
// (§3.2.3).
//
// The package owns the per-method models (how many passes, over what
// volume, through how many streams) and no sizing rule: partition count,
// grid, buffer per stream and fan-in are the executor's own functions
// (pbsm.PlanGrid, iocost), so a prediction cannot drift from the run it
// predicts. Predictions are in the same deterministic cost units the
// simulator charges (PT + n per contiguous request), so tests validate
// them against measured runs directly.
package plan

import (
	"math"
	"math/rand"
	"sort"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/s3j"
	"spatialjoin/internal/sfc"
)

// Prediction is the analytic I/O estimate for one method.
type Prediction struct {
	Method  core.Method
	IOUnits float64
	// Passes is the predicted number of full passes over the method's
	// working data (the Table 3 view).
	Passes float64
	// Replication is the predicted copies-per-input-record.
	Replication float64
}

// Workload is everything the predictor needs about the join.
type Workload struct {
	NR, NS  int        // relation cardinalities
	SampleR []geom.KPE // a sample of R (both relations pooled is fine)
	SampleS []geom.KPE
	Memory  int64
}

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

// PBSM predicts the partition-write plus join-read cost of PBSM with the
// Reference Point Method: every copy written once, to the 2·P partition
// files, and read once, file by file. That is what runs when the plan
// fits, and the partitioner's planner (pbsm.PlanGridFor) packs tiles by
// their exact record counts so that it does; repartitioning — left to a
// tile that alone exceeds the budget — is not modeled.
func PBSM(w Workload, d iocost.Device) Prediction {
	// The grid is the partitioner's own plan — formula (1) and the tile
	// shape have one home — so a change to it moves the prediction too.
	gs := pbsm.GridSpec{NX: 1, NY: 1, Parts: 1}
	if w.Memory > 0 {
		gs = pbsm.PlanGrid(w.NR, w.NS, pbsm.Config{Memory: w.Memory})
	}
	rep := gs.ReplicationRate(append(append([]geom.KPE(nil), w.SampleR...), w.SampleS...))
	vol := rep * float64(w.NR+w.NS) * geom.KPESize
	// Evenly filled files: each ends in a partial page and a partial
	// buffer of its own, which at small budgets is a visible share. The
	// writers split M; a pair load reads with what the pair leaves of it.
	files := float64(2 * gs.Parts)
	perFile := math.Ceil(d.Pages(vol) / files)
	write := files * d.PassCost(perFile, d.BufFor(w.Memory, gs.Parts))
	read := files * d.PassCost(perFile, d.LoadBuf(w.Memory, int64(vol)/int64(gs.Parts)))
	return Prediction{
		Method:      core.PBSM,
		IOUnits:     write + read,
		Passes:      2,
		Replication: rep,
	}
}

// S3J predicts the cost of the replicated S³J: the partitioners write
// every copy once, in memory-sized runs sorted in scan order and in the
// chunk's window, and the scan reads every copy once through one cursor
// per run. Only when there are more runs than the scan holds cursors
// for — a merge's fan-in, but never fewer than one per level and
// relation — do forced merge passes add a read and a write each.
func S3J(w Workload, d iocost.Device) Prediction {
	const levels = s3j.DefaultLevels
	rep := 1.0
	if sample := append(append([]geom.KPE(nil), w.SampleR...), w.SampleS...); len(sample) > 0 {
		var copies float64
		for _, k := range sample {
			l := sfc.SizeLevel(k.Rect, levels)
			copies += float64(len(sfc.OverlapCells(k.Rect, l, nil)))
		}
		rep = copies / float64(len(sample))
	}
	rec := float64(geom.KPESize + 8) // level records carry the scan key
	vol := rep * float64(w.NR+w.NS) * rec
	pg := d.Pages(vol)
	runs := math.Max(2, math.Ceil(vol/float64(w.Memory))) // at least one per relation
	fanIn := d.FanIn(w.Memory)
	cursors := float64(max(fanIn, 2*(levels+1)))
	extra := mergePasses(runs, cursors, fanIn)
	write := d.PassCost(pg, d.ChunkBuf(w.Memory))
	read := d.PassCost(pg, d.BufFor(w.Memory, int(math.Min(runs, cursors))))
	return Prediction{
		Method:      core.S3J,
		IOUnits:     write + read + 2*extra*d.PassCost(pg, d.BufFor(w.Memory, fanIn+1)),
		Passes:      2 + 2*extra,
		Replication: rep,
	}
}

// mergePasses predicts how many passes bring runs down to at most target:
// each divides the run count by the fan-in.
func mergePasses(runs, target float64, fanIn int) float64 {
	if runs <= target {
		return 0
	}
	return math.Ceil(math.Log(runs/target) / math.Log(float64(fanIn)))
}

// SSSJ predicts the materialize + external-sort + sweep-read cost of the
// sweeping join (no replication; an extra merge pass when a relation
// exceeds the sort workspace). The raw copy and the sweep stream in unit
// requests, run formation reads and writes in the chunk's window, and
// the merges read and write with their share of M.
func SSSJ(w Workload, d iocost.Device) Prediction {
	vol := float64(w.NR+w.NS) * geom.KPESize
	pg := d.Pages(vol)
	passes := 4.0 // write raw, sort read+write (run formation), sweep read
	io := d.PassCost(pg, d.Unit())*2 + d.PassCost(pg, d.ChunkBuf(w.Memory))*2
	// Multi-run sorts add merge passes over the data.
	runs, fanIn := vol/float64(w.Memory), d.FanIn(w.Memory)
	if extra := mergePasses(runs, 1, fanIn); extra > 0 {
		io += d.PassCost(pg, d.BufFor(w.Memory, min(int(math.Ceil(runs)), fanIn)+1)) * 2 * extra
		passes += 2 * extra
	}
	return Prediction{Method: core.SSSJ, IOUnits: io, Passes: passes, Replication: 1}
}

// Rank returns the predictions for PBSM, S³J and SSSJ sorted by
// ascending predicted I/O cost.
func Rank(w Workload, d iocost.Device) []Prediction {
	preds := []Prediction{PBSM(w, d), S3J(w, d), SSSJ(w, d)}
	sort.Slice(preds, func(i, j int) bool { return preds[i].IOUnits < preds[j].IOUnits })
	return preds
}

// Choose returns a ready-to-run Config for the cheapest predicted
// method, with the internal algorithm picked by core.Recommend's
// memory-ratio rule when PBSM wins.
func Choose(w Workload, d iocost.Device) core.Config {
	best := Rank(w, d)[0]
	cfg := core.Recommend(w.NR, w.NS, w.Memory)
	cfg.Method = best.Method
	return cfg
}
