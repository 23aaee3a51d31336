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
// scan opens one cursor per (relation, run) and its heap is the final
// merge. Every copy is written once and read once. A cell whose records
// lie in several runs is gathered from them in run order, and runs are
// consecutive ranges of the input, so a cell holds its records in input
// order — the same cells with the same contents in the same sequence as
// the per-level files gave. Only when there are more runs than the scan
// may hold cursors for does a sort phase exist: it merges runs by whole
// passes (extsort.MergeDown) until they fit.
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
// scan retires on the cursor's cached interval start before it reads the
// group. When an append outgrows the arena and reallocates, the entries
// already on the stack keep pointing into the old backing array; nothing
// writes to it again, the garbage collector keeps it alive for as long as
// an entry refers to it, and every later truncation and append works on
// the new array at the same offsets.
package s3j

import (
	"container/heap"
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
	// Parallel is the worker count (< 2 = serial). Two things run in
	// parallel: R and S are partitioned as two units of the shared
	// scheduler, each filling, sorting and writing its own chunks, and the
	// merge groups of a forced merge pass are units too. The scan is
	// sequential by construction (one globally ordered scan). Results,
	// run contents and I/O units are identical at every worker count.
	// Each extra worker holds a second chunk plus its sort index, or the
	// buffers of a second merge group, beyond Memory.
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
	// units when the first result reached the caller.
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
	inputs := [2][]geom.KPE{R, S}
	nIn := float64(len(R) + len(S))
	// Planned cost in record weights: every input record is partitioned
	// once and scanned at least once. Replication and forced merges are
	// known only later; the total is raised once, after the sort phase.
	j.cfg.Progress.SetTotal(2 * nIn)

	sortCfg := j.sortConfig()

	// Phase 1: write the scan-order runs. The two relations are
	// independent units; a unit creates its run files one after the other,
	// so what a run holds does not depend on the worker count.
	pt := j.begin(PhasePartition)
	pt.Span.AddRecords(int64(len(R) + len(S)))
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
		pt.End()
		return joinerr.Wrap("s3j", PhasePartition.String(), err)
	}
	j.stats.LevelRecordsR, j.stats.LevelRecordsS = counts[0], counts[1]
	for _, n := range counts[0] {
		j.stats.CopiesR += n
	}
	for _, n := range counts[1] {
		j.stats.CopiesS += n
	}
	copies := [2]int64{j.stats.CopiesR, j.stats.CopiesS}
	j.stats.SortRuns = len(runs[0]) + len(runs[1])
	pt.Span.SetAttr("copies", copies[0]+copies[1])
	pt.Span.SetAttr("runs", int64(j.stats.SortRuns))
	pt.End()

	// Phase 2 exists only when it is forced: the scan holds one cursor
	// per run, as many as one merge of this budget reads at once — but
	// never fewer than the one per level file and relation the paper's
	// scan opens at any budget. While the runs are more than that, one
	// pass merges the longer list (any pass leaves fewer runs than it
	// found, so "at most one fewer" asks for exactly one).
	pt = j.begin(PhaseSort)
	sortCfg.Trace = pt.Span
	var st extsort.Stats
	var merged float64
	for limit := max(sortCfg.FanIn(), 2*(levels+1)); len(runs[0])+len(runs[1]) > limit; {
		long := 0
		if len(runs[1]) > len(runs[0]) {
			long = 1
		}
		runs[long], err = extsort.MergeDown(runs[long], len(runs[long])-1, sortCfg, &st)
		if err != nil {
			pt.End()
			return joinerr.Wrap("s3j", PhaseSort.String(), err)
		}
		merged += float64(copies[long])
	}
	j.stats.MergePasses = st.MergePass
	pt.End()
	scanWork := float64(copies[0] + copies[1])
	j.cfg.Progress.SetTotal(nIn + merged + scanWork)
	j.cfg.Progress.Add(merged)

	// Phase 3: synchronized scan.
	pt = j.begin(PhaseJoin)
	pt.Span.AddRecords(copies[0] + copies[1])
	err = j.scan(runs)
	pt.End()
	if err == nil {
		j.cfg.Progress.Add(scanWork)
	}
	return joinerr.Wrap("s3j", PhaseJoin.String(), err)
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

// scan performs the heap-driven synchronized scan of the runs (§4.4.3): a
// heap over one cursor per (relation, run) yields the cells of both
// relations in space-filling-curve order; two stacks hold the cells of
// the current root path per relation; each arriving cell is gathered from
// the runs that hold a part of it and joined against the other relation's
// stack.
func (j *joiner) scan(runs [2][]extsort.Run) error {
	h := &cursorHeap{}
	buf := iocost.DeviceOf(j.cfg.Disk, j.cfg.BufPages).BufFor(j.cfg.Memory, len(runs[0])+len(runs[1]))
	for rel := range runs {
		for ord, run := range runs[rel] {
			c := newGroupCursor(run, buf, rel, ord)
			ok, err := c.fillPeek()
			if err != nil {
				return err
			}
			if ok {
				h.items = append(h.items, c)
			}
		}
	}
	heap.Init(h)

	// One stack of active cells and one arena holding their items per
	// relation (see the package comment for why that is sound).
	var stacks [2][]stackEntry
	var arena [2][]geom.KPE
	var resident int64
	j.onPair = j.candidate
	for h.Len() > 0 {
		if err := j.cfg.Cancel.Point(); err != nil {
			return err
		}
		key, rel := h.items[0].pkKey, h.items[0].rel
		code, level, lo, hi := keyCell(key)

		// Retire stack cells that ended before the arriving one starts,
		// before its items are read into the space they free.
		for s := 0; s < 2; s++ {
			st := stacks[s]
			for len(st) > 0 && st[len(st)-1].hi <= lo {
				n := len(st[len(st)-1].items)
				resident -= int64(n) * geom.KPESize
				arena[s] = arena[s][:len(arena[s])-n]
				st = st[:len(st)-1]
			}
			stacks[s] = st
		}

		// Gather the cell: the heap hands out the runs holding a part of
		// it one after the other, in input order.
		held := len(arena[rel])
		for h.Len() > 0 && h.items[0].pkKey == key && h.items[0].rel == rel {
			c := h.items[0]
			var err error
			if _, arena[rel], _, err = c.nextGroup(arena[rel]); err != nil {
				return err
			}
			if c.peeked {
				heap.Fix(h, 0)
			} else {
				heap.Pop(h)
			}
		}
		items := arena[rel][held:]
		var ix, iy uint32
		if level > 0 {
			ix, iy = j.decodeCell(code, level)
		}
		j.deeper = stackEntry{lo: lo, hi: hi, level: level, ix: ix, iy: iy, items: items}

		// Join the arriving cell against every active cell of the other
		// relation — exactly the node-vs-root-path pairs of §4.1. The
		// arriving cell is always the deeper (or equal) one, so the
		// modified Reference Point Method tests against it.
		for _, anc := range stacks[1-rel] {
			if rel == 0 {
				j.alg.Join(items, anc.items, j.onPair)
			} else {
				j.alg.Join(anc.items, items, j.onPair)
			}
		}

		stacks[rel] = append(stacks[rel], j.deeper)
		resident += int64(len(items)) * geom.KPESize
		if resident > j.stats.MaxResident {
			j.stats.MaxResident = resident
		}
	}
	return nil
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

// cursorHeap orders group cursors by scan key — the start of the next
// cell's code interval, ancestors before descendants — then R before S,
// then by run: the order the synchronized pre-order traversal requires,
// with the parts of one cell in input order.
type cursorHeap struct {
	items []*groupCursor
}

func (h *cursorHeap) Len() int { return len(h.items) }

func (h *cursorHeap) Less(a, b int) bool {
	ca, cb := h.items[a], h.items[b]
	if ca.pkKey != cb.pkKey {
		return ca.pkKey < cb.pkKey
	}
	if ca.rel != cb.rel {
		return ca.rel < cb.rel
	}
	return ca.ord < cb.ord
}

func (h *cursorHeap) Swap(a, b int)      { h.items[a], h.items[b] = h.items[b], h.items[a] }
func (h *cursorHeap) Push(x interface{}) { h.items = append(h.items, x.(*groupCursor)) }
func (h *cursorHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
