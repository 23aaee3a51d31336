package main

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"spatialjoin/internal/core"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/extsort"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/sfc"
	"spatialjoin/internal/shard"
	"spatialjoin/internal/sweep"
)

// kernelRecs is the length of the prefix of each relation that the
// kernel cells work on: 2 x kernelRecs records a cell.
const kernelRecs = 100000

// sink keeps results of kernel loops alive, so that the compiler cannot
// remove the loops.
var sink uint64

// prefix returns the first kernelRecs records of the workload's own
// relations, and both prefixes as one slice.
func (t *tracedRun) prefix() (R, S, both []geom.KPE) {
	cut := func(ks []geom.KPE) []geom.KPE {
		if len(ks) > kernelRecs {
			return ks[:kernelRecs]
		}
		return ks
	}
	R, S = cut(t.p.in.R), cut(t.p.in.S)
	both = append(append(make([]geom.KPE, 0, len(R)+len(S)), R...), S...)
	return R, S, both
}

func mb(n int) float64 { return float64(n) / 1e6 }

// storageKernels [pbsm_ext]: the partitioner, the per-pair executor, the
// KPE codec, recfile's framed streams and diskio's raw streams.
func (t *tracedRun) storageKernels() {
	R, S, both := t.prefix()
	n := float64(len(both))
	mem := int64(t.p.w.memShare * float64(len(both)*geom.KPESize))

	var gs pbsm.GridSpec
	var rsl, ssl map[int][]geom.KPE
	secs := t.cell("pbsm.partition", nil, func() (err error) {
		gs = pbsm.PlanGrid(len(R), len(S), pbsm.Config{Memory: mem})
		parts := make([]int, gs.Parts)
		for i := range parts {
			parts[i] = i
		}
		if rsl, err = pbsm.PartitionSlices(R, gs, parts, nil); err != nil {
			return err
		}
		ssl, err = pbsm.PartitionSlices(S, gs, parts, nil)
		return err
	})
	t.m["pbsm.partition_recs_per_s"] = n / secs

	secs = t.cell("pbsm.pairexec", nil, func() error {
		exec, err := pbsm.NewPairExec(pbsm.Config{Disk: diskio.NewDisk(0, 0, 0), Memory: mem}, gs)
		if err != nil {
			return err
		}
		defer exec.Close()
		for p := 0; p < gs.Parts; p++ {
			if err := exec.RunPair(p, rsl[p], ssl[p], func(pr geom.Pair) { sink += pr.R }); err != nil {
				return err
			}
		}
		return nil
	})
	t.m["pbsm.pairexec_recs_per_s"] = n / secs

	payload := make([]byte, len(both)*geom.KPESize)
	secs = t.cell("geom.encode", nil, func() error {
		for i := range both {
			geom.EncodeKPE(payload[i*geom.KPESize:], both[i])
		}
		return nil
	})
	t.m["geom.encode_ns_per_rec"] = secs * 1e9 / n
	secs = t.cell("geom.decode", nil, func() error {
		for i := range both {
			sink += geom.DecodeKPE(payload[i*geom.KPESize:]).ID
		}
		return nil
	})
	t.m["geom.decode_ns_per_rec"] = secs * 1e9 / n

	disk := diskio.NewDisk(0, 0, 0)
	var f *diskio.File
	secs = t.cell("recfile.write", func() { f = disk.Create("") }, func() error {
		w := recfile.NewKPEWriter(f, 4)
		for i := range both {
			if err := w.Write(both[i]); err != nil {
				return err
			}
		}
		return w.Flush()
	})
	t.m["recfile.write_mb_per_s"] = mb(len(payload)) / secs
	t.m["recfile.file_bytes_per_payload_byte"] = float64(f.Len()) / float64(len(payload))
	secs = t.cell("recfile.read", nil, func() error {
		r := recfile.NewKPEReader(f, 4)
		for {
			k, ok, err := r.Next()
			if err != nil || !ok {
				return err
			}
			sink += k.ID
		}
	})
	t.m["recfile.read_mb_per_s"] = mb(len(payload)) / secs

	before := disk.Stats().CostUnits
	secs = t.cell("diskio.write", func() { f = disk.Create("") }, func() error {
		w := f.NewWriter(4)
		if _, err := w.Write(payload); err != nil {
			return err
		}
		return w.Flush()
	})
	t.m["diskio.write_mb_per_s"] = mb(len(payload)) / secs
	chunk := make([]byte, 64<<10)
	secs = t.cell("diskio.read", nil, func() error {
		r := f.NewReader(4)
		for {
			got, err := r.Read(chunk)
			if err != nil || got == 0 {
				return err
			}
			sink += uint64(chunk[0])
		}
	})
	t.m["diskio.read_mb_per_s"] = mb(len(payload)) / secs
	// cellReps writes and cellReps reads of the payload were charged.
	t.m["diskio.cost_units_per_mb"] = (disk.Stats().CostUnits - before) / (2 * cellReps * mb(len(payload)))
}

// sweepKernels [pbsm_mem]: the list and trie plane sweeps on their own.
func (t *tracedRun) sweepKernels() {
	R, S, both := t.prefix()
	n := float64(len(both))
	for _, kind := range []sweep.Kind{sweep.ListKind, sweep.TrieKind} {
		var rs, ss []geom.KPE
		var alg sweep.Algorithm
		var results int64
		// The sweeps sort their inputs in place: every repetition gets
		// the prefix in input order and a fresh algorithm.
		prep := func() {
			rs = append(rs[:0], R...)
			ss = append(ss[:0], S...)
			alg, results = sweep.New(kind), 0
		}
		secs := t.cell("sweep."+string(kind), prep, func() error {
			alg.Join(rs, ss, func(_, _ geom.KPE) { results++ })
			return nil
		})
		pre := "sweep." + string(kind)
		t.m[pre+"_ns_per_test"] = secs * 1e9 / float64(alg.Tests())
		t.m[pre+"_recs_per_s"] = n / secs
		t.m[pre+"_tests_per_result"] = float64(alg.Tests()) / float64(results)
		if kind == sweep.TrieKind {
			t.m["sweep.trie_touches_per_result"] = float64(alg.Touches()) / float64(results)
		}
	}
}

// sortCell runs extsort.Sort over a file of n records with 5% of the
// file as memory and fills the extsort cells other than the rate.
func (t *tracedRun) sortCell(name string, in *diskio.File, recSize int, less extsort.Less) float64 {
	d := in.Disk()
	n := float64(recfile.NumRecs(in, recSize))
	var st extsort.Stats
	var units float64
	secs := t.cell(name, nil, func() error {
		before := d.Stats().CostUnits
		sorted, s, err := extsort.Sort(in, extsort.Config{
			Disk:       d,
			RecordSize: recSize,
			Memory:     int64(in.Len() / 20),
			Parallel:   runtime.GOMAXPROCS(0),
			Less:       less,
		})
		if err != nil {
			return err
		}
		st, units = s, d.Stats().CostUnits-before
		d.Remove(sorted.Name())
		return nil
	})
	t.m["extsort.runs"] = float64(st.Runs)
	t.m["extsort.merge_passes"] = float64(st.MergePass)
	t.m["extsort.comparisons_per_rec"] = float64(st.Comparisons) / n
	t.m["extsort.io_units_per_rec"] = units / n
	return n / secs
}

// sortKernels [s3j_ext]: the external sort over KPE records (by left
// edge; the input is in generation order) and the locational-code
// arithmetic of S3J's partitioning.
func (t *tracedRun) sortKernels() {
	_, _, both := t.prefix()
	n := float64(len(both))

	f := diskio.NewDisk(0, 0, 0).Create("")
	w := recfile.NewKPEWriter(f, 4)
	for i := range both {
		if err := w.Write(both[i]); err != nil {
			t.fail("extsort.kpe input: %v", err)
			return
		}
	}
	if err := w.Flush(); err != nil {
		t.fail("extsort.kpe input: %v", err)
		return
	}
	t.m["extsort.kpe_recs_per_s"] = t.sortCell("extsort.kpe", f, geom.KPESize, func(a, b []byte) bool {
		return geom.DecodeKPE(a).Rect.XL < geom.DecodeKPE(b).Rect.XL
	})

	levels := make([]int, len(both))
	secs := t.cell("sfc.sizelevel", nil, func() error {
		for i := range both {
			levels[i] = sfc.SizeLevel(both[i].Rect, sfc.MaxLevel)
		}
		return nil
	})
	t.m["sfc.sizelevel_ns_per_rect"] = secs * 1e9 / n
	secs = t.cell("sfc.peano", nil, func() error {
		for i := range both {
			ix, iy := sfc.CellAt(both[i].Rect.Center(), levels[i])
			sink += sfc.Peano.Code(ix, iy, levels[i])
		}
		return nil
	})
	t.m["sfc.peano_ns_per_code"] = secs * 1e9 / n
	cells := make([][2]uint32, 0, 4)
	secs = t.cell("sfc.overlapcells", nil, func() error {
		for i := range both {
			cells = sfc.OverlapCells(both[i].Rect, levels[i], cells[:0])
			sink += uint64(len(cells))
		}
		return nil
	})
	t.m["sfc.overlapcells_ns_per_rect"] = secs * 1e9 / n
}

// resultKernels [pbsm_dupsort]: the external sort over result pairs and
// the scheduler's ordered collector, the two layers a result passes on
// its way out of a parallel join.
func (t *tracedRun) resultKernels() {
	_, _, both := t.prefix()
	n := len(both)

	rng := rand.New(rand.NewSource(int64(t.p.in.hash >> 1)))
	pairs := make([]geom.Pair, n)
	for i := range pairs {
		pairs[i] = geom.Pair{R: uint64(rng.Intn(n)), S: uint64(rng.Intn(n))}
	}
	f := diskio.NewDisk(0, 0, 0).Create("")
	w := recfile.NewPairWriter(f, 4)
	for _, p := range pairs {
		if err := w.Write(p); err != nil {
			t.fail("extsort.pair input: %v", err)
			return
		}
	}
	if err := w.Flush(); err != nil {
		t.fail("extsort.pair input: %v", err)
		return
	}
	t.m["extsort.pair_recs_per_s"] = t.sortCell("extsort.pair", f, geom.PairSize, func(a, b []byte) bool {
		return geom.DecodePair(a).Less(geom.DecodePair(b))
	})

	// Two units of n/2 pairs each on two goroutines. In order, unit 0
	// finishes before unit 1 starts and every pair streams through;
	// reversed, unit 1 finishes first and its pairs wait in the buffer.
	collect := func(firstUnit int) func() error {
		return func() error {
			col := sched.NewCollector(2, func(p geom.Pair) { sink += p.S })
			half := pairs[:n/2]
			unit := func(i int) {
				for _, p := range half {
					col.Emit(i, p)
				}
				col.Done(i)
			}
			firstDone := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				unit(firstUnit)
				close(firstDone)
			}()
			go func() {
				defer wg.Done()
				<-firstDone
				unit(1 - firstUnit)
			}()
			wg.Wait()
			return nil
		}
	}
	emitted := float64(2 * (n / 2))
	t.m["sched.collector_inorder_ns_per_pair"] = t.cell("sched.collector_inorder", nil, collect(0)) * 1e9 / emitted
	t.m["sched.collector_reorder_ns_per_pair"] = t.cell("sched.collector_reorder", nil, collect(1)) * 1e9 / emitted

	const units = 100000
	secs := t.cell("sched.run", nil, func() error {
		return sched.Run(units, sched.Options{Workers: runtime.GOMAXPROCS(0)}, func(_, _ int) error { return nil })
	})
	t.m["sched.run_ns_per_unit"] = secs * 1e9 / units
}

// shardKernels [pbsm_shards2]: the frame protocol through a buffer, and
// the fixed cost of a sharded join that has next to nothing to join.
func (t *tracedRun) shardKernels() {
	const frames = 256
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(int64(t.p.in.hash >> 1))).Read(payload)
	var buf bytes.Buffer
	buf.Grow(frames * (len(payload) + 64))
	secs := t.cell("shard.frame_write", buf.Reset, func() error {
		fw := shard.NewFrameWriter(&buf)
		for i := 0; i < frames; i++ {
			if err := fw.Write(shard.FramePart, payload); err != nil {
				return err
			}
		}
		return nil
	})
	t.m["shard.frame_write_mb_per_s"] = mb(frames*len(payload)) / secs
	t.m["shard.frame_bytes_per_payload_byte"] = float64(buf.Len()) / float64(frames*len(payload))
	secs = t.cell("shard.frame_read", nil, func() error {
		fr := shard.NewFrameReader(bytes.NewReader(buf.Bytes()))
		for {
			_, p, err := fr.Next()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			sink += uint64(p[0])
		}
	})
	t.m["shard.frame_read_mb_per_s"] = mb(frames*len(payload)) / secs

	tiny := 64
	if tiny > len(t.p.in.R) {
		tiny = len(t.p.in.R)
	}
	R, S := t.p.in.R[:tiny], t.p.in.S[:tiny]
	cfg := core.Config{Shards: t.p.cfg.Shards, Memory: int64(t.p.w.memShare * float64(2*tiny*geom.KPESize))}
	t.m["shard.empty_join_s"] = t.cell("shard.empty_join", nil, func() error {
		_, err := core.Join(R, S, cfg, func(p geom.Pair) { sink += p.R })
		return err
	})
}
