package core

import (
	"fmt"
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/s3j"
	"spatialjoin/internal/sweep"
)

// seamConfigs is one configuration per join method and variant: PBSM's
// two duplicate methods under both sweep kernels and the paper's hash
// plan, both S³J variants, SSSJ and SHJ, the last three with their
// default kernels.
func seamConfigs() []Config {
	var cfgs []Config
	for _, dup := range []pbsm.DupMethod{pbsm.DupRPM, pbsm.DupSort} {
		for _, alg := range []sweep.Kind{sweep.ListKind, sweep.TrieKind} {
			cfgs = append(cfgs, Config{Method: PBSM, PBSMDup: dup, Algorithm: alg})
		}
	}
	cfgs = append(cfgs, Config{Method: PBSM, PBSMHashTiles: true})
	for _, mode := range []s3j.Mode{s3j.ModeOriginal, s3j.ModeReplicate} {
		cfgs = append(cfgs, Config{Method: S3J, S3JMode: mode, Algorithm: sweep.NestedLoopsKind})
	}
	return append(cfgs, Config{Method: SSSJ, Algorithm: sweep.TrieKind}, Config{Method: SHJ, Algorithm: sweep.ListKind})
}

func seamConfigName(c Config) string {
	if c.PBSMHashTiles {
		return "pbsm/hash"
	}
	return configName(c)
}

// outOfDomain are rectangles core.Join admits though they leave the unit
// square: pbsm.TestPlanTakesOutOfDomainCoordinates' five, and rectangles
// on both sides of 2²², where a level-10 cell index v·2^10 no longer fits
// a uint32.
var outOfDomain = []geom.Rect{
	geom.NewRect(-1e300, -1e300, 1e300, 1e300),
	geom.NewRect(1e300, 1e300, 1e300, 1e300),
	geom.NewRect(-1e300, 0.4, -1e300, 0.6),
	geom.NewRect(0.4, -1e300, 0.6, 1e300),
	geom.NewRect(0.99, 0.99, 1e19, 2),
	geom.NewRect(4194303.9999, 0.5, 4194304, 0.5),
	geom.NewRect(4194304, 0.25, 4194305, 0.75),
	geom.NewRect(4194303, 0.375, 4194303.5, 0.5),
}

// seamInputs draws n narrow rectangles: each edge snaps to a seam k/8
// with probability 1/3 (low edge) or 1/3 (high edge), so that pairs touch
// along the seams of every grid whose side is a power of two up to 8; one
// in eight is zero-width on an axis. The out-of-domain rectangles follow.
func seamInputs(seed int64, n int, firstID uint64) []geom.KPE {
	rng := rand.New(rand.NewSource(seed))
	axis := func() (lo, hi float64) {
		w := 0.04 * rng.Float64()
		if rng.Intn(8) == 0 {
			w = 0
		}
		seam := float64(rng.Intn(9)) / 8
		switch rng.Intn(3) {
		case 0:
			lo = seam
		case 1:
			lo = seam - w
		default:
			lo = rng.Float64()
		}
		return lo, lo + w
	}
	ks := make([]geom.KPE, 0, n+len(outOfDomain))
	for i := range n {
		xl, xh := axis()
		yl, yh := axis()
		ks = append(ks, geom.KPE{ID: firstID + uint64(i), Rect: geom.NewRect(xl, yl, xh, yh)})
	}
	for i, r := range outOfDomain {
		ks = append(ks, geom.KPE{ID: firstID + uint64(n+i), Rect: r})
	}
	return ks
}

// TestSeamsAndDomainBordersExactlyOnce runs every method and variant at
// one and three workers, and at budgets of the whole input and a quarter
// of it, on geometry where a placement rule can slip: rectangles touching
// along the seams of the tile grids and the quadtree, zero-width ones,
// and coordinates far outside the data space. Each must deliver exactly
// jointest.Naive's pairs. The fixed cases are minimized, memory-resident
// ones: a pair touching along the root seam y = 0.5, which a closed-cell
// containment test puts in disjoint quadtree subtrees; coordinates past
// 2²², whose level-10 index v·2^10 leaves the uint32 range; and build
// extents spanning ±1e300, where every SHJ bucket enlargement is NaN.
func TestSeamsAndDomainBordersExactlyOnce(t *testing.T) {
	kpes := func(rs ...geom.Rect) []geom.KPE {
		ks := make([]geom.KPE, len(rs))
		for i, r := range rs {
			ks[i] = geom.KPE{ID: uint64(i + 1), Rect: r}
		}
		return ks
	}
	type input struct {
		name    string
		R, S    []geom.KPE
		budgets []int64 // nil: the whole input and a quarter of it
	}
	resident := []int64{1 << 20}
	inputs := []input{
		{"touch-on-seam", kpes(geom.NewRect(0, 0.5, 0.3, 0.8)), kpes(geom.NewRect(0, 0.3, 0.1, 0.5)), resident},
		{"past-uint32", kpes(geom.NewRect(4194303.9999, 0.5, 4194304, 0.5)), kpes(geom.NewRect(4194304, 0.5, 4194304, 0.5)), resident},
		{"nan-enlargement", kpes(
			geom.NewRect(4194304, 0.5, 1e9, 1000),
			geom.NewRect(0.5, 0.732706, 0.823825, 1e300),
			geom.NewRect(-1e300, -1e300, 0.62529, 0.699858)),
			kpes(geom.NewRect(-1e300, 0.972794, 0.5, 4194304)), resident},
	}
	for seed := int64(1); seed <= 4; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("seams-%d", seed),
			seamInputs(2*seed, 150, 1), seamInputs(2*seed+1, 150, 1<<20), nil})
	}
	for _, in := range inputs {
		budgets := in.budgets
		if budgets == nil {
			size := int64((len(in.R) + len(in.S)) * geom.KPESize)
			budgets = []int64{size, size / 4}
		}
		for _, cfg := range seamConfigs() {
			for _, budget := range budgets {
				for _, workers := range []int{1, 3} {
					cfg.Memory, cfg.Parallel = budget, workers
					name := fmt.Sprintf("%s/%s/mem=%d/p=%d", in.name, seamConfigName(cfg), budget, workers)
					t.Run(name, func(t *testing.T) { checkJoin(t, in.R, in.S, cfg) })
				}
			}
		}
	}
}
