// Package s3j implements the Size Separation Spatial Join of Koudas &
// Sevcik [KS 97] and the replicated variant of Dittrich & Seeger (ICDE
// 2000, §4). S³J partitions each input with a hierarchy of equidistant
// grids — the levels of an MX-CIF quadtree — orders the level records by
// locational code along a space-filling curve, and joins with a single
// synchronized scan of all levels.
//
// The paper writes one file per level, sorts each, and scans them
// together. The only order that scan consumes is the pre-order of the
// quadtree cells, and a record's place in it — its scan key — is known
// the moment the partitioner has its level and code. So the partitioner
// here collects the records of ALL levels in one Memory-sized chunk,
// sorts the chunk by scan key and writes it as one run per flush; the
// scan reads the runs of both relations through one extsort.Merge, R's
// runs first, so that the run index tells the relations apart; it is the
// final merge. At more than one worker that merge runs as a stage of its
// own, a few batches ahead of the cell joins that consume it, so the scan
// uses two cores; at one worker the cell joins take each record as the
// merge yields it. Every copy is written once and read once. A cell
// whose records lie in several runs is gathered from them in run order, and
// runs are consecutive ranges of the input, so a cell holds its records
// in input order — the same cells with the same contents in the same
// sequence as the per-level files gave. Only when there are more runs
// than the scan may hold cursors for does a sort phase exist: it merges
// runs by whole passes (extsort.MergeDown) until they fit.
//
// The original algorithm assigns a rectangle to the deepest cell that
// *contains* it, so it never replicates data and produces no duplicates —
// but small rectangles that straddle cell boundaries sink to shallow
// levels where they are tested against nearly everything. The paper's
// variant (ModeReplicate) instead derives the level from the rectangle's
// *size* and replicates it into the (at most four) cells it overlaps at
// that level; the resulting response-set duplicates are eliminated
// on-line by a modified Reference Point Method that tests the reference
// point against the deeper of the two cells being joined (§4.3).
//
// The synchronized scan keeps, per relation, the cells of the current
// root path on a stack, and the rectangles of all those cells in ONE
// append-only arena per relation instead of one slice per cell. That is
// sound because stack lifetimes are LIFO: the cells retired when a new
// cell arrives are exactly the top entries, whose items are the tail of
// the arena, so retiring truncates the arena and the arriving group is
// appended into the space just freed — in that order, which is why the
// scan retires at a cell's first record, before the cell's records are
// appended. When an append outgrows the arena and reallocates, the entries
// already on the stack keep pointing into the old backing array; nothing
// writes to it again, the garbage collector keeps it alive for as long as
// an entry refers to it, and every later truncation and append works on
// the new array at the same offsets.
package s3j

import (
	"fmt"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/extsort"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/phase"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/sfc"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
)

// Mode selects the partitioning strategy.
type Mode int

const (
	// ModeOriginal is the redundancy-free S³J of [KS 97]: level by
	// containment, no replication, no duplicates.
	ModeOriginal Mode = iota
	// ModeReplicate is the paper's improvement: level by rectangle size,
	// replication into up to four cells, on-line duplicate removal via
	// the modified Reference Point Method.
	ModeReplicate
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeReplicate {
		return "replicate"
	}
	return "original"
}

// Phase indexes the per-phase statistics (Figure 8).
type Phase int

// The three S³J phases.
const (
	PhasePartition Phase = iota
	PhaseSort
	PhaseJoin
	numPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhasePartition:
		return "partition"
	case PhaseSort:
		return "sort"
	case PhaseJoin:
		return "join"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Config controls an S³J join.
type Config struct {
	// Disk is the simulated device for the runs of level records. Required.
	Disk *diskio.Disk
	// Memory is the byte budget: the size of the chunk a partitioner
	// sorts and writes as one run, and what bounds the cursors the scan
	// holds. Required.
	Memory int64
	// Mode selects original or replicated partitioning. Default
	// ModeOriginal.
	Mode Mode
	// Algorithm is the internal join for partition pairs. §4.4.1 finds
	// nested loops adequate and the trie sweep counterproductive for
	// S³J's tiny partitions. Default: nested loops.
	Algorithm sweep.Kind
	// Curve selects the locational-code curve; the paper uses Peano
	// because its codes are cheapest to compute (§4.4.2). Default Peano.
	Curve sfc.Curve
	// Levels is the number of grid levels below the root (the deepest
	// level index). Values < 1 select DefaultLevels.
	Levels int
	// BufPages caps every file stream's requests at this many pages.
	// Values < 1 let the scan's cursors and any forced merge take their
	// share of Memory (iocost.Device.BufFor), and the partitioners' run
	// writes, whose chunk already fills Memory, the chunk's own window
	// (iocost.Device.ChunkBuf).
	BufPages int
	// Trace is the parent span phase spans nest under; nil disables
	// instrumentation.
	Trace *trace.Span
	// Cancel is the join's cancellation checkpoint; nil disables
	// cancellation.
	Cancel *govern.Check
	// Parallel is the worker count (< 2 = serial). Three things run in
	// parallel: R and S are partitioned as two units of the shared
	// scheduler, each filling, sorting and writing its own chunks; the
	// merge groups of a forced merge pass are units too; and the scan's
	// two stages overlap — its merge runs on a goroutine of its own and
	// hands batches of records to the cell joins, which stay on the
	// caller's goroutine (see mergeCells). Results, their order, run
	// contents and I/O units are identical at every worker count; the
	// first-result I/O clock at more than one worker is not, since the
	// merge stage reads ahead of the first pair. Each extra worker holds a
	// second chunk plus its sort index, or the buffers of a second merge
	// group, beyond Memory, and a parallel scan its batches.
	Parallel int
	// Metrics, when non-nil, publishes live counters (duplicates
	// suppressed, RPM tests, replication copies, runs written) and feeds
	// the per-pool scheduler series.
	Metrics *metrics.Registry
	// Progress, when non-nil, receives record-weighted completions for
	// the percent-complete/ETA estimator: the partitioners contribute the
	// input records of every run they write, a forced merge the records
	// it moved, the scan its total copies.
	Progress *metrics.Progress
}

// DefaultLevels gives 4^10 ≈ one million cells on the deepest grid,
// small enough partitions for the datasets of the paper.
const DefaultLevels = 10

func (c *Config) levels() int {
	if c.Levels < 1 {
		return DefaultLevels
	}
	if c.Levels > sfc.MaxLevel {
		return sfc.MaxLevel
	}
	return c.Levels
}

func (c *Config) algorithm() sweep.Algorithm {
	if c.Algorithm == "" {
		return sweep.New(sweep.NestedLoopsKind)
	}
	return sweep.New(c.Algorithm)
}

// Stats reports what an S³J join did.
type Stats struct {
	Results     int64 // pairs delivered to the caller (duplicate-free)
	RawResults  int64 // pairs produced before the reference-point test
	CopiesR     int64 // level records written for R
	CopiesS     int64 // likewise for S
	Tests       int64 // candidate tests of the internal algorithm
	Touches     int64 // status node touches of the internal algorithm
	SortRuns    int   // runs the two partitioners wrote
	MergePasses int   // forced merge passes (0 when the scan can hold every run)

	// LevelRecordsR/S count records per level for both relations; index
	// is the level. They expose the size-separation behaviour §4.2
	// discusses (in the original mode, level 0 collects every boundary
	// straddler).
	LevelRecordsR []int64
	LevelRecordsS []int64

	// MaxResident is the largest number of bytes of KPEs held in memory
	// at once during the synchronized scan (the active cells on the two
	// root-path stacks plus the arriving partition).
	MaxResident int64

	PhaseIO  [numPhases]diskio.Stats
	PhaseCPU [numPhases]time.Duration

	// FirstResultCPU / FirstResultIO: elapsed CPU and simulated I/O cost
	// units when the first result reached the caller. At more than one
	// worker FirstResultIO includes what the scan's merge stage had read
	// ahead by then, and differs from run to run.
	FirstResultCPU time.Duration
	FirstResultIO  float64
}

// TotalIO sums the per-phase I/O statistics.
func (s *Stats) TotalIO() diskio.Stats { return phase.TotalIO(s.PhaseIO[:]) }

// TotalCPU sums the per-phase CPU times.
func (s *Stats) TotalCPU() time.Duration { return phase.TotalCPU(s.PhaseCPU[:]) }

// ReplicationRate returns records-written / input-size.
func (s *Stats) ReplicationRate(nr, ns int) float64 {
	if nr+ns == 0 {
		return 0
	}
	return float64(s.CopiesR+s.CopiesS) / float64(nr+ns)
}

// Join computes the spatial intersection join of R and S, delivering each
// result pair exactly once to emit. The inputs are never modified.
func Join(R, S []geom.KPE, cfg Config, emit func(geom.Pair)) (Stats, error) {
	if cfg.Disk == nil {
		return Stats{}, joinerr.Wrap("s3j", "config", fmt.Errorf("Config.Disk is required"))
	}
	if cfg.Memory <= 0 {
		return Stats{}, joinerr.Wrap("s3j", "config", fmt.Errorf("Config.Memory must be positive, got %d", cfg.Memory))
	}
	j := newJoiner(cfg)
	// One sweep covers every exit path, so no run file outlives the join —
	// success, failure or cancellation alike.
	defer j.reg.Sweep()
	err := j.run(R, S, emit)
	j.stats.Tests = j.alg.Tests()
	j.stats.Touches = j.alg.Touches()
	j.publishMetrics()
	return j.stats, err
}

type joiner struct {
	cfg   Config
	alg   sweep.Algorithm
	stats Stats
	led   *phase.Ledger    // charges stats.PhaseCPU/PhaseIO and the first-result fields
	reg   *diskio.Registry // every temp file of this join; swept on exit

	emit func(geom.Pair)

	// deeper is the arriving cell of the scan step in progress, the cell
	// the duplicate test checks the reference point against; onPair is
	// j.candidate bound once, the callback of every cell-pair join.
	deeper stackEntry
	onPair func(r, s geom.KPE)
}

// newJoiner builds the state of one join, as it begins; cfg.Disk is set.
func newJoiner(cfg Config) *joiner {
	j := &joiner{cfg: cfg, alg: cfg.algorithm(), reg: cfg.Disk.NewRegistry()}
	j.led = phase.New(cfg.Disk, cfg.Trace, j.stats.PhaseCPU[:], j.stats.PhaseIO[:], &j.stats.FirstResultCPU, &j.stats.FirstResultIO)
	return j
}

func (j *joiner) deliver(p geom.Pair) {
	j.led.First()
	j.stats.Results++
	j.emit(p)
}

func (j *joiner) begin(p Phase) phase.Activation {
	return j.led.Begin(int(p), p.String())
}

func (j *joiner) run(R, S []geom.KPE, emit func(geom.Pair)) error {
	j.emit = emit
	levels := j.cfg.levels()
	nIn := float64(len(R) + len(S))
	// Planned cost in record weights: every input record is partitioned
	// once and scanned at least once. Replication and forced merges are
	// known only later; the total is raised once, after the sort phase.
	j.cfg.Progress.SetTotal(2 * nIn)

	sortCfg := j.sortConfig()
	runs, err := j.partitionPhase(R, S, levels, sortCfg)
	if err != nil {
		return joinerr.Wrap("s3j", PhasePartition.String(), err)
	}
	copies := [2]int64{j.stats.CopiesR, j.stats.CopiesS}
	runs, merged, err := j.mergePhase(runs, copies, levels, sortCfg)
	if err != nil {
		return joinerr.Wrap("s3j", PhaseSort.String(), err)
	}
	scanWork := float64(copies[0] + copies[1])
	j.cfg.Progress.SetTotal(nIn + merged + scanWork)
	j.cfg.Progress.Add(merged)

	err = j.scanPhase(runs, copies[0]+copies[1])
	if err == nil {
		j.cfg.Progress.Add(scanWork)
	}
	return joinerr.Wrap("s3j", PhaseJoin.String(), err)
}

// partitionPhase is phase 1: it writes the scan-order runs of R and S.
// The two relations are independent units; a unit creates its run files
// one after the other, so what a run holds does not depend on the worker
// count.
func (j *joiner) partitionPhase(R, S []geom.KPE, levels int, sortCfg extsort.Config) ([2][]extsort.Run, error) {
	pt := j.begin(PhasePartition)
	defer pt.End()
	pt.Span.AddRecords(int64(len(R) + len(S)))
	inputs := [2][]geom.KPE{R, S}
	var runs [2][]extsort.Run
	var counts [2][]int64
	err := sched.Run(len(inputs), sched.Options{
		Workers: j.cfg.Parallel,
		Name:    "partition-input",
		Span:    pt.Span,
		Cancel:  j.cfg.Cancel,
		Metrics: j.cfg.Metrics,
	}, func(w, i int) error {
		var perr error
		runs[i], counts[i], perr = j.partitionInput(inputs[i], levels, sortCfg)
		return perr
	})
	if err != nil {
		return runs, err
	}
	j.stats.LevelRecordsR, j.stats.LevelRecordsS = counts[0], counts[1]
	for _, n := range counts[0] {
		j.stats.CopiesR += n
	}
	for _, n := range counts[1] {
		j.stats.CopiesS += n
	}
	j.stats.SortRuns = len(runs[0]) + len(runs[1])
	pt.Span.SetAttr("copies", j.stats.CopiesR+j.stats.CopiesS)
	pt.Span.SetAttr("runs", int64(j.stats.SortRuns))
	return runs, nil
}

// mergePhase is phase 2, which exists only when it is forced: the scan
// holds one cursor per run, as many as one merge of this budget reads at
// once — but never fewer than the one per level file and relation the
// paper's scan opens at any budget. While the runs are more than that,
// one pass merges the longer list (any pass leaves fewer runs than it
// found, so "at most one fewer" asks for exactly one). It returns the
// runs left and the record copies the passes merged.
func (j *joiner) mergePhase(runs [2][]extsort.Run, copies [2]int64, levels int, sortCfg extsort.Config) ([2][]extsort.Run, float64, error) {
	pt := j.begin(PhaseSort)
	defer pt.End()
	sortCfg.Trace = pt.Span
	var st extsort.Stats
	var merged float64
	for limit := max(sortCfg.FanIn(), 2*(levels+1)); len(runs[0])+len(runs[1]) > limit; {
		long := 0
		if len(runs[1]) > len(runs[0]) {
			long = 1
		}
		var err error
		runs[long], err = extsort.MergeDown(runs[long], len(runs[long])-1, sortCfg, &st)
		if err != nil {
			return runs, merged, err
		}
		merged += float64(copies[long])
	}
	j.stats.MergePasses = st.MergePass
	return runs, merged, nil
}

// scanPhase is phase 3: the synchronized scan of the runs, holding copies
// records.
func (j *joiner) scanPhase(runs [2][]extsort.Run, copies int64) error {
	pt := j.begin(PhaseJoin)
	defer pt.End()
	pt.Span.AddRecords(copies)
	return j.scan(runs)
}

// sortConfig is how this join's runs are sorted, written and merged. Run
// files are registered at creation; the joiner's sweep removes whatever
// the join leaves behind, on every exit path.
func (j *joiner) sortConfig() extsort.Config {
	return extsort.Config{
		Disk:       j.cfg.Disk,
		RecordSize: levRecSize,
		Memory:     j.cfg.Memory,
		BufPages:   j.cfg.BufPages,
		Parallel:   j.cfg.Parallel,
		Reg:        j.reg,
		Cancel:     j.cfg.Cancel,
		// The scan key is the whole order; records of one cell keep the
		// order of the input.
		Key: decodeLevKey,
	}
}

// partitionInput assigns every rectangle of ks its level and cells and
// writes the level records as runs sorted by scan key, one per full chunk
// and one for the rest. It returns the runs, in input order, plus the
// per-level record counts. It is safe to call from concurrent workers: it
// touches only its own runs (plus the mutex-protected registry and the
// atomic progress and metric handles).
func (j *joiner) partitionInput(ks []geom.KPE, levels int, sortCfg extsort.Config) ([]extsort.Run, []int64, error) {
	counts := make([]int64, levels+1)
	maxRecs := sortCfg.ChunkRecs() // a partitioner's chunk is a run of extsort's size
	bound := int64(len(ks))
	if j.cfg.Mode == ModeReplicate {
		bound *= 4 // §4.3: at most four copies of a rectangle
	}
	chunk := make([]byte, min(maxRecs, bound)*levRecSize)
	var runs []extsort.Run
	var rw extsort.RunWriter // one sort index for all of this partitioner's runs
	var n int64              // records in the chunk
	flushed := 0             // input records the written runs account for
	flush := func(upTo int) error {
		if n == 0 {
			return nil
		}
		f := j.reg.Create()
		if _, err := rw.WriteRun(f, chunk[:n*levRecSize], sortCfg); err != nil {
			return err
		}
		runs = append(runs, extsort.Run{File: f, Recs: n})
		j.cfg.Metrics.Counter(metRunsWritten).Inc()
		j.cfg.Progress.Add(float64(upTo - flushed))
		n, flushed = 0, upTo
		return nil
	}
	var cells [][2]uint32
	chk := j.cfg.Cancel.Stride()
	for i := range ks {
		if err := chk.Point(); err != nil {
			return runs, counts, err
		}
		k := ks[i]
		var l int
		if j.cfg.Mode == ModeReplicate {
			l = sfc.SizeLevel(k.Rect, levels)
			cells = sfc.OverlapCells(k.Rect, l, cells[:0])
		} else {
			var ix, iy uint32
			l, ix, iy = sfc.ContainmentLevel(k.Rect, levels)
			cells = append(cells[:0], [2]uint32{ix, iy})
		}
		for _, c := range cells {
			key := uint64(0)
			if l > 0 { // level 0 needs no code (§4.4.2)
				key = scanKey(j.cfg.Curve.Code(c[0], c[1], l), l)
			}
			encodeLevRec(chunk[n*levRecSize:], key, k)
			counts[l]++
			if n++; n == maxRecs {
				if err := flush(i + 1); err != nil {
					return runs, counts, err
				}
			}
		}
	}
	return runs, counts, flush(len(ks))
}

// stackEntry is one active cell on a relation's root-path stack during
// the synchronized scan: the cell's code interval at maximum depth, its
// level and grid coordinates, and its resident rectangles.
type stackEntry struct {
	lo, hi uint64
	level  int
	ix, iy uint32
	items  []geom.KPE
}

// scan performs the synchronized scan of the runs (§4.4.3): one merge
// of all runs (mergeCells) yields the cells of both relations in
// space-filling-curve order; two stacks hold the cells of the current
// root path per relation; each cell, once gathered, is joined against the
// other relation's stack.
func (j *joiner) scan(runs [2][]extsort.Run) error {
	buf := iocost.DeviceOf(j.cfg.Disk, j.cfg.BufPages).BufFor(j.cfg.Memory, len(runs[0])+len(runs[1]))

	// One stack of active cells and one arena holding their items per
	// relation (see the package comment for why that is sound). The cell
	// being gathered is j.deeper, of relation rel; its items are the tail
	// of arena[rel] from held on.
	var stacks [2][]stackEntry
	var arena [2][]geom.KPE
	var resident int64
	rel, held := -1, 0
	j.onPair = j.candidate

	// finish joins the gathered cell against every active cell of the
	// other relation — exactly the node-vs-root-path pairs of §4.1 — and
	// pushes it. The gathered cell is always the deeper (or equal) one,
	// so the modified Reference Point Method tests against it.
	finish := func() {
		items := arena[rel][held:]
		j.deeper.items = items
		for _, anc := range stacks[1-rel] {
			if rel == 0 {
				j.alg.Join(items, anc.items, j.onPair)
			} else {
				j.alg.Join(anc.items, items, j.onPair)
			}
		}
		stacks[rel] = append(stacks[rel], j.deeper)
		resident += int64(len(items)) * geom.KPESize
		j.stats.MaxResident = max(j.stats.MaxResident, resident)
	}
	err := mergeCells(runs, buf, j.sortConfig(), j.cfg.Parallel, &arena, func(key uint64, r int) {
		if rel >= 0 {
			finish()
		}
		code, level, lo, hi := keyCell(key)
		// Retire stack cells that ended before the arriving one starts,
		// before its items are appended into the space they free.
		for s := range stacks {
			st := stacks[s]
			for len(st) > 0 && st[len(st)-1].hi <= lo {
				n := len(st[len(st)-1].items)
				resident -= int64(n) * geom.KPESize
				arena[s] = arena[s][:len(arena[s])-n]
				st = st[:len(st)-1]
			}
			stacks[s] = st
		}
		var ix, iy uint32
		if level > 0 {
			ix, iy = j.decodeCell(code, level)
		}
		// Field by field: finish sets items. A whole-struct store here
		// was copied through the stack in overlapping halves, and the
		// read of a half that two writes had just covered stalled.
		d := &j.deeper
		d.lo, d.hi, d.level, d.ix, d.iy = lo, hi, level, ix, iy
		rel, held = r, len(arena[r])
	})
	if err == nil && rel >= 0 {
		finish()
	}
	return err
}

// decodeCell recovers grid coordinates from a locational code.
func (j *joiner) decodeCell(code uint64, level int) (uint32, uint32) {
	if j.cfg.Curve == sfc.Hilbert {
		return sfc.HilbertXY(code, level)
	}
	return sfc.ZDecode(code, level)
}

// candidate receives one intersecting pair of the cell pair being joined.
// In replicate mode it is delivered only by the cell that owns the pair's
// reference point, tested against j.deeper (the modified RPM of §4.3).
func (j *joiner) candidate(r, s geom.KPE) {
	j.stats.RawResults++
	if j.cfg.Mode == ModeReplicate {
		x := geom.RefPoint(r.Rect, s.Rect)
		cx, cy := sfc.CellAt(x, j.deeper.level)
		if cx != j.deeper.ix || cy != j.deeper.iy {
			return // duplicate: reported by the cell owning x
		}
	}
	j.deliver(geom.Pair{R: r.ID, S: s.ID})
}
