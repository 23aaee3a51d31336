package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/s3j"
)

// workload is one set of inputs plus the configuration that joins them.
// Later issues refer to workloads by name.
type workload struct {
	name string
	why  string
	// n is the record count of each relation at scale 1.
	n int
	// grow is the paper's (p)-transformation applied to both relations;
	// 1 leaves the rectangles as generated.
	grow float64
	// memShare sets Config.Memory as a share of the input size in bytes.
	memShare float64
	// cfg holds the method settings; Memory is filled in per input.
	cfg core.Config
	// pinned is the input hash at seed 1 and scale 1.
	pinned uint64
	// kernels are the layer cells the traced pass runs on this workload.
	kernels func(*tracedRun)
}

var workloads = []workload{
	{
		name:     "pbsm_ext",
		why:      "PBSM+RPM with memory at 5% of the input: partition scan, repartitioning, recfile/diskio and the codec all work, so storage and partitioning changes show here",
		n:        500000,
		grow:     1,
		memShare: 0.05,
		pinned:   0xbae2a2dd7f2bba71,
		kernels:  (*tracedRun).storageKernels,
	},
	{
		name:     "pbsm_mem",
		why:      "PBSM+RPM with memory at 4x the input: one partition and no I/O, so only the sweep kernel shows and storage changes must not",
		n:        300000,
		grow:     1,
		memShare: 4,
		pinned:   0x218a04cdf8bf10b1,
		kernels:  (*tracedRun).sweepKernels,
	},
	{
		name:     "pbsm_dupsort",
		why:      "PBSM with the original sort-based duplicate removal on rectangles grown 4x: result pairs are written, sorted and deduplicated, 10x more results per record",
		n:        150000,
		grow:     4,
		memShare: 0.10,
		cfg:      core.Config{PBSMDup: pbsm.DupSort},
		pinned:   0xe13d41c934a360db,
		kernels:  (*tracedRun).resultKernels,
	},
	{
		name:     "s3j_ext",
		why:      "replicated S3J on the Peano curve with memory at 10% of the input: extsort and sfc dominate and the sweep does little, the mirror of pbsm_mem",
		n:        400000,
		grow:     1,
		memShare: 0.10,
		cfg:      core.Config{Method: core.S3J, S3JMode: s3j.ModeReplicate},
		pinned:   0x270e8f8e87b41479,
		kernels:  (*tracedRun).sortKernels,
	},
	{
		name:     "pbsm_shards2",
		why:      "PBSM+RPM over two local worker processes: the only workload that crosses the process boundary, so frame protocol, merge and spawn cost show here alone",
		n:        500000,
		grow:     1,
		memShare: 0.10,
		cfg:      core.Config{Shards: 2},
		pinned:   0xbae2a2dd7f2bba71,
		kernels:  (*tracedRun).shardKernels,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are what the program under test receives: two relations.
type inputs struct {
	R, S  []geom.KPE
	bytes int64  // (|R|+|S|) x geom.KPESize
	hash  uint64 // FNV-64a over the encoded records of R, then S
}

func (in *inputs) records() int { return len(in.R) + len(in.S) }

// The layout of both relations (where the chains and clusters lie, and
// with them the skew, the result count and the repartitioning a join
// meets) comes from these two fixed generator seeds, the way the paper
// joins one fixed pair of maps. Generating the layout from -seed would
// move every metric by 10-25% from one seed to the next, more than any
// bound, so no two seeds could be compared.
const (
	layoutSeedR = 1
	layoutSeedS = 2
)

// jitter is the largest shift, per axis, that -seed applies to a
// rectangle: about the length of one street segment, so that which
// rectangles intersect changes from seed to seed while the layout holds.
const jitter = 0.001

// generate makes the workload's relations: R = LARR(layoutSeedR, n) and
// S = LAST(layoutSeedS, n), every rectangle shifted by a random offset
// drawn from seed, both then grown by the workload's factor. scale
// multiplies n and is for smoke tests; numbers compare only at scale 1.
func (w workload) generate(seed int64, scale float64) inputs {
	n := int(float64(w.n) * scale)
	in := inputs{
		R: datagen.LARR(layoutSeedR, n).KPEs,
		S: datagen.LAST(layoutSeedS, n).KPEs,
	}
	rng := rand.New(rand.NewSource(seed))
	for _, ks := range [][]geom.KPE{in.R, in.S} {
		for i := range ks {
			ks[i].Rect = shift(ks[i].Rect, jitter*(2*rng.Float64()-1), jitter*(2*rng.Float64()-1))
		}
	}
	if w.grow != 1 {
		in.R, in.S = datagen.Scale(in.R, w.grow), datagen.Scale(in.S, w.grow)
	}
	in.bytes = int64(in.records()) * geom.KPESize
	h := fnv.New64a()
	var buf [geom.KPESize]byte
	for _, ks := range [][]geom.KPE{in.R, in.S} {
		for _, k := range ks {
			geom.EncodeKPE(buf[:], k)
			h.Write(buf[:])
		}
	}
	in.hash = h.Sum64()
	return in
}

// shift moves r by (dx, dy), stopping at the edge of the unit square so
// that the rectangle keeps its size.
func shift(r geom.Rect, dx, dy float64) geom.Rect {
	dx = math.Max(-r.XL, math.Min(dx, 1-r.XH))
	dy = math.Max(-r.YL, math.Min(dy, 1-r.YH))
	return geom.Rect{XL: r.XL + dx, YL: r.YL + dy, XH: r.XH + dx, YH: r.YH + dy}
}

// checkPinned fails when the inputs of the reference configuration have
// changed, so that an edit to internal/datagen cannot silently change
// the workloads. Any other seed or scale runs unpinned: a claim must
// also hold on a seed the change was not written against.
func (w workload) checkPinned(seed int64, scale float64, in inputs) error {
	if seed != 1 || scale != 1 || in.hash == w.pinned {
		return nil
	}
	return fmt.Errorf("workload %s: input_hash %#016x differs from the pinned %#016x: the generated inputs changed",
		w.name, in.hash, w.pinned)
}

// config returns the join configuration for in. Parallel stays 0, which
// selects GOMAXPROCS workers; Disk stays nil, which gives every join a
// fresh default disk with latency 0.
func (w workload) config(in inputs) core.Config {
	cfg := w.cfg
	cfg.Memory = int64(w.memShare * float64(in.bytes))
	return cfg
}
