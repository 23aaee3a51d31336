package s3j

import (
	"fmt"
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/extsort"
	"spatialjoin/internal/geom"
)

// BenchmarkScanPhase measures just the synchronized scan (phase 3): the
// partitioners write their runs once, then each iteration re-scans the
// same runs. The scan is extsort.Merge, whose heap compares one integer
// per cursor pair, the scan key stored with every record, and the cell
// joins. At parallel=1 they take turns; at parallel=2 the merge runs as
// a stage of its own and the two overlap.
func BenchmarkScanPhase(b *testing.B) {
	R := datagen.Uniform(21, 20000, 0.004)
	S := datagen.Uniform(22, 20000, 0.004)
	d := diskio.NewDisk(1024, 10, time.Millisecond)
	cfg := Config{Disk: d, Memory: 1 << 20, Mode: ModeReplicate}
	j := newJoiner(cfg)
	defer j.reg.Sweep()
	j.emit = func(geom.Pair) {}
	levels := cfg.levels()
	var runs [2][]extsort.Run
	for i, ks := range [][]geom.KPE{R, S} {
		var err error
		if runs[i], _, err = j.partitionInput(ks, levels, j.sortConfig()); err != nil {
			b.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			j.cfg.Parallel = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j.stats = Stats{}
				if err := j.scan(runs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
