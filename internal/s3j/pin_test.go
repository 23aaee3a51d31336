package s3j

import (
	"fmt"
	"hash/fnv"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/sfc"
)

// TestEmissionSequencePinned pins the ORDER in which S³J emits its result
// pairs, not just the set: an FNV-64a hash over "R,S;" of every pair as
// it reaches the caller, one golden value per (mode, curve). The sequence
// is a function of the inputs alone — cells in curve pre-order, records
// of a cell in input order — so the same value must come out at every
// memory budget (from a handful of pages to four times the input) and at
// every worker count. A change to how the level records reach the scan
// (how they are sorted, in how many runs, merged where) must leave these
// values alone.
func TestEmissionSequencePinned(t *testing.T) {
	R := datagen.LARR(1, 20000).KPEs
	S := datagen.LAST(2, 20000).KPEs
	inputBytes := float64(len(R)+len(S)) * geom.KPESize
	golden := map[string]uint64{
		"original/peano":    0xe48fee7e2531d1bf,
		"original/hilbert":  0xb0fdd1ad927e7be5,
		"replicate/peano":   0xcfdd91b696866a65,
		"replicate/hilbert": 0x9bec1072bb367713,
	}
	for _, mode := range []Mode{ModeOriginal, ModeReplicate} {
		for _, curve := range []sfc.Curve{sfc.Peano, sfc.Hilbert} {
			name := fmt.Sprintf("%v/%v", mode, curve)
			for _, share := range []float64{0.02, 0.10, 4} {
				for _, workers := range []int{1, 4} {
					h := fnv.New64a()
					cfg := Config{
						Disk:     diskio.NewDisk(0, 0, 0), // the default device: 8 KiB pages, PT 20
						Memory:   int64(share * inputBytes),
						Mode:     mode,
						Curve:    curve,
						Parallel: workers,
					}
					st, err := Join(R, S, cfg, func(p geom.Pair) { fmt.Fprintf(h, "%d,%d;", p.R, p.S) })
					if err != nil {
						t.Fatalf("%s/memory=%g/parallel=%d: %v", name, share, workers, err)
					}
					if got := h.Sum64(); got != golden[name] {
						t.Errorf("%s/memory=%g/parallel=%d: emission sequence hash %016x, pinned %016x (%d results)",
							name, share, workers, got, golden[name], st.Results)
					}
					t.Logf("%s/memory=%g/parallel=%d: %.0f cost units, %d runs, %d merge passes",
						name, share, workers, st.TotalIO().CostUnits, st.SortRuns, st.MergePasses)
				}
			}
		}
	}
}
