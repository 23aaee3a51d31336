// Package pbsm implements the Partition Based Spatial-Merge Join of Patel
// & DeWitt [PD 96] together with the improvements of Dittrich & Seeger
// (ICDE 2000, §3): on-line duplicate elimination with the Reference Point
// Method instead of the original final sort phase, a pluggable internal
// plane-sweep algorithm (list- or trie-based sweep-line status), a tuning
// factor on the partition-count formula, and an explicit recursive
// repartitioning strategy.
//
// The algorithm proceeds in phases:
//
//  1. Partitioning — both relations are divided into P partitions using an
//     equidistant grid of NT ≥ P tiles and a table mapping tiles to
//     partitions; a KPE is written to every partition owning a tile its
//     rectangle overlaps (replication). The table is planned from the
//     data: an exact per-tile record count of both inputs, packed onto
//     the partitions by LPT (PlanGridFor), so that skew formula (1) does
//     not see is spread instead of repartitioned. Config.HashTiles keeps
//     the paper's plan, the [PD 96] hash of the tile index.
//  2. Repartitioning — partition pairs exceeding the memory budget (a
//     tile hotter than the budget, or any skew under the hash plan) are
//     recursively split with finer, hash-filled grids.
//  3. Join — each partition pair is loaded and joined in memory.
//  4. Duplicate removal — either the original sort of the result pairs
//     (DupSort: the join phase writes them as sorted, deduplicated runs
//     and this phase merges the runs into the result), or free of any
//     extra phase with the Reference Point Method (DupRPM), which tests
//     each produced pair on-line.
//
// Whatever the join phase has in memory — a loaded partition pair, or
// both inputs whole when formula (1) yields P = 1 — it joins on the pair
// kernel of package stripe, cut into cache-sized y-stripes, with the
// duplicate method above as the kernel's hook (stripes.go).
package pbsm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/extsort"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/phase"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/stripe"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
)

// DupMethod selects how duplicates in the response set are eliminated.
type DupMethod int

const (
	// DupRPM is the paper's on-line Reference Point Method (§3.2.1): a
	// result is reported only if its reference point falls in the region
	// of the partition pair being processed. No extra phase, no extra
	// I/O, pipelining preserved.
	DupRPM DupMethod = iota
	// DupSort is the original PBSM strategy [PD 96]: the join phase's
	// results are sorted and deduplicated in a final blocking phase. The
	// join phase fills a chunk of Memory bytes with them, in partition
	// order, and writes each full chunk, sorted and without equal pairs,
	// as one run; the final phase writes the last chunk too, merges the
	// runs (whole passes first when they outnumber the merge fan-in) and
	// delivers every distinct pair once, in pair order. The chunk and the
	// radix sort's scratch, as large again, are held beside the join
	// phase's slots, outside Memory (DESIGN.md §3). The collector sorts
	// and writes a full chunk while it holds its mutex, so with Parallel
	// > 1 every worker's emission waits for that run write.
	DupSort
)

// String names the method. Unknown values are named dup(N) rather than
// silently masquerading as a real method in stats, traces and bench
// artifacts.
func (d DupMethod) String() string {
	switch d {
	case DupRPM:
		return "rpm"
	case DupSort:
		return "sort"
	}
	return fmt.Sprintf("dup(%d)", int(d))
}

// ParseDupMethod maps a flag value to a DupMethod. Unknown strings are
// an error naming the valid methods — a typo must never silently select
// a different duplicate-handling semantics.
func ParseDupMethod(s string) (DupMethod, error) {
	switch s {
	case "rpm":
		return DupRPM, nil
	case "sort":
		return DupSort, nil
	}
	return 0, joinerr.Wrap("pbsm", "config", fmt.Errorf("unknown duplicate method %q (valid: rpm, sort)", s))
}

// Phase indexes the per-phase statistics.
type Phase int

// The four PBSM phases of Figure 1.
const (
	PhasePartition Phase = iota
	PhaseRepartition
	PhaseJoin
	PhaseDup
	numPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhasePartition:
		return "partition"
	case PhaseRepartition:
		return "repartition"
	case PhaseJoin:
		return "join"
	case PhaseDup:
		return "dup-removal"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Config controls a PBSM join.
type Config struct {
	// Disk is the simulated device for partition files, repartitioning
	// and the optional duplicate-removal sort. Required.
	Disk *diskio.Disk
	// Memory is the byte budget M of formula (1). Partition pairs are
	// sized to fit in it. Required (> 0).
	Memory int64
	// Algorithm selects the internal in-memory join. Default: list sweep,
	// the original PBSM choice.
	Algorithm sweep.Kind
	// Dup selects the duplicate-elimination strategy. Default DupRPM.
	Dup DupMethod
	// TuneFactor is the multiplier t > 1 applied to formula (1) before
	// the ceiling (§3.2.3), avoiding partition pairs that just barely
	// miss the memory budget. Values ≤ 1 select iocost.DefaultTuneFactor.
	TuneFactor float64
	// TilesPerPartition sets NT = TilesPerPartition × P. Values < 1
	// select the default 4.
	TilesPerPartition int
	// HashTiles plans the way the paper does: tiles go to partitions by
	// the [PD 96] hash, which knows only the counts, instead of by the
	// balanced packing of the exact tile histogram (PlanGridFor). The
	// paper reproduction sets it where a figure measures the hash plan and
	// the repartitioning it causes on skewed data; nothing else should.
	HashTiles bool
	// BufPages caps every file stream's buffer at this many pages, the
	// paper's fixed buffer. Values < 1 let each stream take its share of
	// Memory (iocost.Device.BufFor, LoadBuf, ChunkBuf): the partition and
	// repartition writers split the budget, a pair load reads with what
	// the pair leaves of it, and DupSort writes each run in its chunk's
	// window.
	BufPages int
	// MaxRecurse bounds repartitioning recursion; beyond it a pair is
	// joined in memory even if over budget (counted in MemoryOverflows).
	// Values < 1 select 8.
	MaxRecurse int
	// Parallel joins this many partition pairs concurrently in the join
	// phase (values < 2 keep the phase sequential) on the shared
	// scheduler of package sched. Each worker joins its pairs with a
	// private internal algorithm; result pairs are buffered per pair and
	// released in partition order, so the emitted sequence is IDENTICAL
	// to a sequential run's. Parallelism never changes the result set,
	// its order, the Stats counters or the TOTAL I/O charged; it does
	// change wall-clock time and how that total splits over the phases
	// (see Stats.PhaseIO).
	Parallel int
	// Trace is the parent span phase/pair/heal spans nest under; nil
	// disables instrumentation.
	Trace *trace.Span
	// Cancel is the join's cancellation checkpoint; nil disables
	// cancellation. Every data-dependent loop polls it, so a canceled
	// join unwinds within a bounded amount of work.
	Cancel *govern.Check
	// Metrics, when non-nil, publishes live counters (pairs completed,
	// duplicates suppressed, RPM tests, replication copies) and feeds
	// the per-pool scheduler series.
	Metrics *metrics.Registry
	// Progress, when non-nil, receives the join's planned pair costs
	// and per-pair completions for the percent-complete/ETA estimator.
	Progress *metrics.Progress
}

func (c *Config) tilesPerPart() int {
	if c.TilesPerPartition < 1 {
		return 4
	}
	return c.TilesPerPartition
}

func (c *Config) maxRecurse() int {
	if c.MaxRecurse < 1 {
		return 8
	}
	return c.MaxRecurse
}

// validate rejects a Config no PBSM entry point can run: the one check
// Join and NewPairExec share.
func (c *Config) validate() error {
	if c.Disk == nil {
		return joinerr.Wrap("pbsm", "config", fmt.Errorf("Config.Disk is required"))
	}
	if c.Memory <= 0 {
		return joinerr.Wrap("pbsm", "config", fmt.Errorf("Config.Memory must be positive, got %d", c.Memory))
	}
	if err := c.Algorithm.Validate(); err != nil {
		return joinerr.Wrap("pbsm", "config", err)
	}
	switch c.Dup {
	case DupRPM, DupSort:
		return nil
	}
	return joinerr.Wrap("pbsm", "config",
		fmt.Errorf("unknown Config.Dup %v (valid: %v, %v)", c.Dup, DupRPM, DupSort))
}

// Stats reports what a PBSM join did. Simulated I/O and measured CPU are
// kept per phase so the experiments of Figures 3 and 6 can be read off
// directly.
type Stats struct {
	P, NT int // partition and tile counts of the initial grid

	Results         int64 // pairs delivered to the caller (duplicate-free)
	RawResults      int64 // pairs the join phase hands to dedup (stripes add none)
	CopiesR         int64 // KPE copies written for R in the partition phase
	CopiesS         int64 // likewise for S
	Repartitions    int   // number of repartitioning splits performed
	MemoryOverflows int   // pairs joined over budget at the recursion cap
	Healed          int   // partition pairs re-derived after a checksum failure
	Tests           int64 // candidate tests of the internal algorithm
	Touches         int64 // status node touches of the internal algorithm

	// PhaseIO and PhaseCPU split the join's I/O and wall time over the
	// phases. Only the totals are invariant under Config.Parallel: with
	// one worker every repartition split and heal charges its own phase
	// (the split Figures 3 and 6 read); with more, the workers overlap,
	// so one timer around the whole region charges everything inside it —
	// repartition and heal I/O included — to PhaseJoin, and
	// PhaseRepartition reads zero.
	PhaseIO  [numPhases]diskio.Stats
	PhaseCPU [numPhases]time.Duration

	// FirstResultCPU and FirstResultIO capture the elapsed CPU time and
	// the simulated I/O cost units consumed when the first result reached
	// the caller: the pipelining measure of §3.1 — with DupSort no result
	// appears before the final merge starts. With more than one
	// worker FirstResultIO is timing-dependent: it includes whatever the
	// other workers had charged by then, and differs from run to run.
	FirstResultCPU time.Duration
	FirstResultIO  float64
}

// TotalIO sums the per-phase I/O statistics.
func (s *Stats) TotalIO() diskio.Stats { return phase.TotalIO(s.PhaseIO[:]) }

// TotalCPU sums the per-phase CPU times.
func (s *Stats) TotalCPU() time.Duration { return phase.TotalCPU(s.PhaseCPU[:]) }

// ReplicationRate returns copies-written / input-size for relation sizes
// nr and ns, the redundancy measure of §5.1.
func (s *Stats) ReplicationRate(nr, ns int) float64 {
	if nr+ns == 0 {
		return 0
	}
	return float64(s.CopiesR+s.CopiesS) / float64(nr+ns)
}

// Join computes the spatial intersection join of R and S, delivering each
// result pair exactly once to emit. The inputs are never modified.
func Join(R, S []geom.KPE, cfg Config, emit func(geom.Pair)) (Stats, error) {
	if err := cfg.validate(); err != nil {
		return Stats{}, err
	}
	j := newJoiner(cfg)
	// One sweep covers every exit path — success, failure, cancellation —
	// so no partition, repartition or run file outlives the join.
	defer j.reg.Sweep()
	err := j.run(R, S, emit)
	st := j.snapshot()
	j.publishMetrics(&st)
	return st, err
}

type joiner struct {
	cfg   Config
	dev   iocost.Device // cfg.Disk with the resolved buffer: every stream is sized from it
	ex    *stripe.Exec  // the pair kernel's unit driver; its slot 0 is PairExec's only one
	stats Stats
	led   *phase.Ledger    // charges stats.PhaseCPU/PhaseIO and the first-result fields
	reg   *diskio.Registry // every temp file of this join; swept on exit

	emit func(geom.Pair)

	// mu serializes stats mutations (bump) and DupSort's spillErr; result
	// delivery goes through the collector's own serialization.
	mu sync.Mutex

	// Under DupSort the collector hands the join phase's pairs to spill:
	// chunk is the chunk it fills, up to chunkRecs pairs (extsort's run
	// chunk, Memory bytes), scratch the radix sort's space for it, runs
	// the sorted, deduplicated runs written so far, and spillErr the
	// first error writing one, which fold returns (a sink cannot).
	chunk     []geom.Pair
	scratch   []geom.Pair
	chunkRecs int
	runs      []extsort.Run
	spillErr  error

	// grid is the top-level grid (nil when P = 1): the partition phase
	// scatters through it and the top pairs' regions read it. band is the
	// unit square in the grid's stripe rows (GridSpec.Rows), which every
	// loaded pair and repartition leaf is cut over. baseR/baseS are kept
	// for self-healing: when a top-level partition file fails checksum
	// verification before its pair emitted anything, the partition is
	// re-derived from the base inputs.
	baseR, baseS []geom.KPE
	grid         *grid
	band         stripe.Band

	// pairCost holds each top pair's planned iocost.PairCost (progress
	// weights; nil without a Progress), read-only once the join phase
	// starts. pairsDone and rpmTests are live counter handles resolved
	// once up front (nil-safe, nil without a registry); rpmTests is added
	// once per kernel call (fold) — never per candidate, which would pass
	// its cache line between the cores — so mid-flight /metrics scrapes
	// see it move with the join.
	pairCost  []float64
	pairsDone *metrics.Counter
	rpmTests  *metrics.Counter
}

// newJoiner builds the state Join and PairExec share, as the join begins;
// cfg is validated.
func newJoiner(cfg Config) *joiner {
	j := &joiner{cfg: cfg, dev: iocost.DeviceOf(cfg.Disk, cfg.BufPages), reg: cfg.Disk.NewRegistry()}
	j.led = phase.New(cfg.Disk, cfg.Trace, j.stats.PhaseCPU[:], j.stats.PhaseIO[:], &j.stats.FirstResultCPU, &j.stats.FirstResultIO)
	j.ex = stripe.NewExec(cfg.Algorithm, cfg.Memory, sched.Options{Workers: cfg.Parallel, Cancel: cfg.Cancel, Metrics: cfg.Metrics})
	j.pairsDone = cfg.Metrics.Counter(metPairsDone)
	j.rpmTests = cfg.Metrics.Counter(metRPMTests)
	sc := j.sortConfig(nil)
	j.chunkRecs = int(sc.ChunkRecs())
	return j
}

// snapshot is the join's Stats with the kernel's sweep counters: the one
// place PBSM reads them.
func (j *joiner) snapshot() Stats {
	s := j.stats
	s.Tests, s.Touches = j.ex.Counts()
	return s
}

// healableError tags a corruption error that was detected before the
// affected top-level partition pair emitted any result, so re-deriving
// the pair from the base inputs and reprocessing it is exactly-once
// safe. Corruption detected after partial emission must NOT be healed by
// reprocessing (it would duplicate results) and stays unwrapped.
type healableError struct{ err error }

func (e *healableError) Error() string { return e.err.Error() }
func (e *healableError) Unwrap() error { return e.err }

// markHealable wraps corrupt errors detected pre-emission.
func markHealable(err error) error {
	if err == nil || !recfile.IsCorrupt(err) {
		return err
	}
	return &healableError{err: err}
}

// begin opens an activation of phase p under a span of the phase's name.
// Activations opened inside the parallel join region are span-only.
func (j *joiner) begin(p Phase) phase.Activation {
	return j.led.Begin(int(p), p.String())
}

// bump mutates the rarely-updated Stats counters (Healed, Repartitions,
// MemoryOverflows, and the candidate counts of one kernel call) under the
// stats mutex.
func (j *joiner) bump(f func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	f()
}

// deliver hands one duplicate-free pair to the caller, recording
// time-to-first-result. In parallel mode it is only ever invoked as the
// collector's sink, which serializes it.
func (j *joiner) deliver(p geom.Pair) {
	j.led.First()
	j.stats.Results++
	j.emit(p)
}

func (j *joiner) run(R, S []geom.KPE, emit func(geom.Pair)) error {
	j.emit = emit
	if iocost.PartCount(int64(len(R)+len(S)), j.cfg.Memory, j.cfg.TuneFactor) > 1 {
		return j.joinPlanned(R, S, func(sp *trace.Span) (GridSpec, error) {
			pcfg := j.cfg
			pcfg.Trace = sp
			return PlanGridFor(R, S, pcfg)
		})
	}
	// Everything fits: no plan, no partition files, the striped in-memory
	// join of stripes.go.
	j.stats.P = 1
	if err := j.joinInMemory(R, S, j.sink()); err != nil {
		return err
	}
	j.pairsDone.Inc()
	return j.dupSortPhase()
}

// joinPlanned runs a P > 1 join of R and S over the top grid plan
// returns. Phase 1 plans and scatters both inputs through the grid;
// phases 2+3 repartition as needed and join each pair; phase 4 follows.
func (j *joiner) joinPlanned(R, S []geom.KPE, plan func(sp *trace.Span) (GridSpec, error)) error {
	j.baseR, j.baseS = R, S
	filesR, filesS, err := j.planAndPartition(plan)
	if err != nil {
		return err
	}
	if err := j.joinTopPairs(filesR, filesS, j.sink()); err != nil {
		return err
	}
	return j.dupSortPhase()
}

// planAndPartition is phase 1 under one partition activation: plan gets
// its span, the parent of PlanGridFor's "plan" span, and partitionPhase
// writes both inputs through the grid plan returns.
func (j *joiner) planAndPartition(plan func(sp *trace.Span) (GridSpec, error)) (filesR, filesS []*diskio.File, err error) {
	pt := j.begin(PhasePartition)
	defer pt.End()
	gs, err := plan(pt.Span)
	if err != nil {
		return nil, nil, err
	}
	return j.partitionPhase(gs, pt.Span)
}

// sink is where the join phase's collector hands its pairs, in partition
// order: to the caller, or under DupSort into the runs of phase 4.
func (j *joiner) sink() func(geom.Pair) {
	if j.cfg.Dup == DupSort {
		return j.spill
	}
	return j.deliver
}

// setGrid makes gs, a valid spec with Parts > 1, the join's top grid:
// its table for the scatter and the regions, its rows for every pair.
func (j *joiner) setGrid(gs GridSpec) {
	j.grid = gs.grid()
	j.band = stripe.Unit.Rows(gs.Rows)
	j.stats.NT = gs.NX * gs.NY
}

// partitionPhase writes both base inputs into the partition files of the
// planned top grid gs, whatever table it holds, and prices the resulting
// pairs for the progress estimator, under sp, the span of the partition
// activation the caller planned in. R and S are two ordered units on the
// shared scheduler, inline at one worker; a unit creates and fills its own
// files, so what a file holds and what the phase is charged do not depend
// on the worker count. Partition files are registered at creation; the
// joiner's sweep removes whatever this run leaves behind, on every exit
// path.
func (j *joiner) partitionPhase(gs GridSpec, sp *trace.Span) (filesR, filesS []*diskio.File, err error) {
	sp.AddRecords(int64(len(j.baseR) + len(j.baseS)))
	j.setGrid(gs)
	j.stats.P = gs.Parts
	sp.SetAttr("partitions", int64(gs.Parts))

	inputs := [2][]geom.KPE{j.baseR, j.baseS}
	var files [2][]*diskio.File
	var copies [2]int64
	err = sched.Run(2, sched.Options{
		Workers: j.cfg.Parallel,
		Name:    "partition-input",
		Span:    sp,
		Cancel:  j.cfg.Cancel,
		Metrics: j.cfg.Metrics,
	}, func(_, i int) (err error) {
		files[i], copies[i], err = j.partitionInput(inputs[i])
		return err
	})
	j.stats.CopiesR, j.stats.CopiesS = copies[0], copies[1]
	sp.SetAttr("copies", copies[0]+copies[1])
	if err != nil {
		return nil, nil, joinerr.Wrap("pbsm", PhasePartition.String(), err)
	}
	filesR, filesS = files[0], files[1]
	// Partition fill skew: records landing in each of the P partitions
	// (both relations). NumKPEs is length-derived, so observing it here is
	// free of I/O charge.
	fill := j.cfg.Metrics.Histogram(metPartitionFill)
	for i := range filesR {
		fill.Observe(float64(recfile.NumKPEs(filesR[i]) + recfile.NumKPEs(filesS[i])))
	}
	j.initProgress(filesR, filesS)
	return filesR, filesS, nil
}

// joinTopPairs runs phases 2+3: every top pair is one ordered unit on
// the unit driver, whose collector hands sink the pairs in pair order —
// including oversized pairs (their repartition
// recursion stays inside the unit) and corrupt ones (healing swaps only
// the unit's own file slots). With more than one worker a single outer
// timer charges the whole region to the join phase and the activations
// inside are span-only; at one worker there is no outer timer and every
// activation charges its own phase, which is the split Figures 3 and 6
// read.
func (j *joiner) joinTopPairs(filesR, filesS []*diskio.File, sink func(geom.Pair)) error {
	var span *trace.Span
	if workers := j.cfg.Parallel; workers > 1 {
		pt := j.begin(PhaseJoin)
		defer pt.End()
		pt.Span.SetAttr("workers", int64(workers))
		span = pt.Span
		j.led.SpanOnly = true
		defer func() { j.led.SpanOnly = false }()
	}
	return joinerr.Wrap("pbsm", PhaseJoin.String(), j.ex.Run(len(filesR), "pair-worker", span, sink,
		func(sl *stripe.Slot, emit func([]geom.Pair), i int) error {
			err := j.processTopPair(sl, emit, filesR, filesS, i)
			if err == nil {
				j.pairDone(i)
			}
			return err
		}))
}

// processTopPair joins top-level partition pair i, healing it once by
// re-derivation from the base inputs if a checksum failure is detected
// before the pair emitted anything. It is safe as a concurrent scheduler
// unit: it touches only slot i of the shared file slices, and its stats
// mutations go through bump.
func (j *joiner) processTopPair(sl *stripe.Slot, emit func([]geom.Pair), filesR, filesS []*diskio.File, i int) error {
	reg := gridRegion{g: j.grid, part: i}
	err := j.processPair(sl, emit, filesR[i], filesS[i], reg, reg, 0)
	var he *healableError
	if err == nil || !errors.As(err, &he) {
		return joinerr.Wrap("pbsm", PhaseJoin.String(), err)
	}
	fr, fs, herr := j.healPartition(i)
	if herr != nil {
		return joinerr.Wrap("pbsm", PhaseJoin.String(), fmt.Errorf("%w (heal failed: %w)", err, herr))
	}
	j.reg.Remove(filesR[i])
	j.reg.Remove(filesS[i])
	filesR[i], filesS[i] = fr, fs
	j.bump(func() { j.stats.Healed++ })
	return joinerr.Wrap("pbsm", PhaseJoin.String(), j.processPair(sl, emit, fr, fs, reg, reg, 0))
}

// healPartition re-derives the two files of top-level partition part from
// the in-memory base inputs, exactly as the partition phase would have
// written them. Its I/O is charged to the partition phase.
func (j *joiner) healPartition(part int) (fr, fs *diskio.File, err error) {
	pt := j.led.Begin(int(PhasePartition), "heal")
	defer pt.End()
	pt.Span.SetAttr("part", int64(part))
	fr, err = j.rederive(j.baseR, part)
	if err != nil {
		return nil, nil, err
	}
	fs, err = j.rederive(j.baseS, part)
	if err != nil {
		j.reg.Remove(fr)
		return nil, nil, err
	}
	return fr, fs, nil
}

// rederive writes a fresh copy of one partition's file for input ks: the
// partition phase's scatter, filtered to one destination.
func (j *joiner) rederive(ks []geom.KPE, part int) (*diskio.File, error) {
	f := j.reg.Create()
	w := recfile.NewKPEWriter(f, j.dev.Unit())
	err := j.grid.scatter(ks, j.cfg.Cancel, func(p int, k geom.KPE) error {
		if p != part {
			return nil
		}
		return w.Write(k)
	})
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		j.reg.Remove(f)
		return nil, err
	}
	return f, nil
}

// sortConfig is the configuration of DupSort's runs: pair records in
// pair order, chunks and merges sized from Memory, passes under sp.
func (j *joiner) sortConfig(sp *trace.Span) extsort.Config {
	return extsort.Config{
		Disk:       j.cfg.Disk,
		RecordSize: geom.PairSize,
		Memory:     j.cfg.Memory,
		BufPages:   j.cfg.BufPages,
		Parallel:   j.cfg.Parallel,
		Trace:      sp,
		Reg:        j.reg,
		Cancel:     j.cfg.Cancel,
		Key:        func(a []byte) uint64 { return geom.DecodePair(a).R },
		Less: func(a, b []byte) bool {
			return geom.DecodePair(a).Less(geom.DecodePair(b))
		},
	}
}

// spill is DupSort's sink. The collector calls it in partition order,
// so every chunk, hence every run and every I/O unit, is the same at any
// Parallel. The chunk grows up to chunkRecs pairs; a full chunk is
// written as one run and reused. A failed write is kept in spillErr,
// under the stats mutex, for fold to end the join phase with.
func (j *joiner) spill(p geom.Pair) {
	if len(j.chunk) == cap(j.chunk) {
		switch {
		case len(j.chunk) < j.chunkRecs:
			// Grow the way append would, but never past one chunk.
			j.chunk = append(make([]geom.Pair, 0, min(2*len(j.chunk)+256, j.chunkRecs)), j.chunk...)
		case j.spillErr != nil:
			j.chunk = j.chunk[:0] // the join fails anyway
		default:
			if err := j.flushChunk(); err != nil {
				j.bump(func() { j.spillErr = joinerr.Wrap("pbsm", PhaseJoin.String(), err) })
			}
		}
	}
	j.chunk = append(j.chunk, p)
}

// flushChunk writes the chunk as one run, sorted and without equal
// pairs, in the chunk's window (iocost.Device.ChunkBuf), and empties it.
func (j *joiner) flushChunk() error {
	if len(j.scratch) < len(j.chunk) {
		j.scratch = make([]geom.Pair, len(j.chunk))
	}
	geom.SortPairs(j.chunk, j.scratch)
	run := slices.Compact(j.chunk)
	j.chunk = j.chunk[:0]
	f := j.reg.Create()
	w := recfile.NewPairWriter(f, j.dev.ChunkBuf(j.cfg.Memory))
	chk := j.cfg.Cancel.Stride()
	for _, p := range run {
		if err := chk.Point(); err != nil {
			return err
		}
		if err := w.Write(p); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	j.runs = append(j.runs, extsort.Run{File: f, Recs: int64(len(run))})
	return nil
}

// dupSortPhase is phase 4 under DupSort and a no-op otherwise.
func (j *joiner) dupSortPhase() error {
	if j.cfg.Dup != DupSort {
		return nil
	}
	pt := j.begin(PhaseDup)
	defer pt.End()
	return joinerr.Wrap("pbsm", PhaseDup.String(), j.mergeRuns(pt.Span))
}

// mergeRuns delivers every distinct pair of the runs and the chunk the
// join phase left, once, in pair order: the chunk becomes the last run,
// MergeDown brings the runs down to the merge fan-in, and the final merge
// is the deduplicating reader.
func (j *joiner) mergeRuns(sp *trace.Span) error {
	if j.spillErr != nil {
		return j.spillErr
	}
	if len(j.chunk) > 0 {
		if err := j.flushChunk(); err != nil {
			return err
		}
	}
	j.chunk = nil
	cfg := j.sortConfig(sp)
	runs, err := extsort.MergeDown(j.runs, cfg.FanIn(), cfg, &extsort.Stats{})
	if err != nil {
		return err
	}
	var prev geom.Pair
	// This merge writes no output stream, so its cursors share all of
	// Memory.
	buf := j.dev.BufFor(j.cfg.Memory, len(runs))
	_, err = extsort.Merge(runs, buf, cfg, func(rec []byte, _ int) error {
		// Results counts what was delivered: zero before the first pair.
		if p := geom.DecodePair(rec); j.stats.Results == 0 || p != prev {
			j.deliver(p)
			prev = p
		}
		return nil
	})
	return err
}

// partitionInput writes each KPE of ks into every partition file whose
// tiles its rectangle overlaps, returning the files and the number of
// copies written.
func (j *joiner) partitionInput(ks []geom.KPE) ([]*diskio.File, int64, error) {
	files := make([]*diskio.File, j.grid.parts)
	writers := make([]*recfile.KPEWriter, j.grid.parts)
	buf := j.dev.BufFor(j.cfg.Memory, j.grid.parts)
	for i := range files {
		files[i] = j.reg.Create()
		writers[i] = recfile.NewKPEWriter(files[i], buf)
	}
	var copies int64
	err := j.grid.scatter(ks, j.cfg.Cancel, func(part int, k geom.KPE) error {
		if err := writers[part].Write(k); err != nil {
			return err
		}
		copies++
		return nil
	})
	for _, w := range writers {
		if err == nil {
			err = w.Flush()
		}
	}
	return files, copies, err
}

// verifyEmptySides checks that every side of a pair reporting zero
// records really is an intact empty stream: NumKPEs is length-derived,
// so a file torn below one frame header masquerades as empty and
// skipping it would silently drop its records from the result. The
// verification I/O (one page per empty side) is charged to the join
// phase.
func (j *joiner) verifyEmptySides(fr, fs *diskio.File) error {
	pt := j.led.Begin(int(PhaseJoin), "verify-empty")
	defer pt.End()
	if err := recfile.VerifyEmptyKPEs(fr, j.dev.Unit()); err != nil {
		return err
	}
	return recfile.VerifyEmptyKPEs(fs, j.dev.Unit())
}

// processPair joins the partition pair (fr, fs), repartitioning
// recursively when the pair exceeds the memory budget (§3.2.3). A pair
// that fits (or has hit the recursion cap) is loaded into the slot's two
// buffers and joined stripe by stripe (stripe.Slot.JoinLoaded); emit
// receives its results in batches, the last one before processPair
// returns.
func (j *joiner) processPair(sl *stripe.Slot, emit func([]geom.Pair), fr, fs *diskio.File, regR, regS region, depth int) error {
	if err := j.cfg.Cancel.Now(); err != nil {
		return err
	}
	nr, ns := recfile.NumKPEs(fr), recfile.NumKPEs(fs)
	if nr == 0 || ns == 0 {
		// Nothing can join — but an apparently empty file may be a torn
		// stream, so verify before skipping the pair.
		err := j.verifyEmptySides(fr, fs)
		if depth == 0 {
			err = markHealable(err)
		}
		return err
	}
	size := (nr + ns) * geom.KPESize
	if size > j.cfg.Memory && depth < j.cfg.maxRecurse() {
		return j.repartitionPair(sl, emit, fr, fs, regR, regS, depth)
	}
	if size > j.cfg.Memory {
		// The slot outgrows the budget; JoinLoaded trims it back.
		j.bump(func() { j.stats.MemoryOverflows++ })
	}

	pt := j.begin(PhaseJoin)
	defer pt.End()
	pt.Span.AddRecords(nr + ns)
	buf := j.dev.LoadBuf(j.cfg.Memory, size)
	var err error
	if sl.LoadR, err = recfile.ReadAllKPEs(sl.LoadR, fr, buf); err == nil {
		if sl.LoadS, err = recfile.ReadAllKPEs(sl.LoadS, fs, buf); err == nil {
			return j.joinLoaded(sl, emit, regR, regS, pt.Span)
		}
	}
	if depth == 0 {
		// The pair's own files failed before anything was emitted:
		// re-derivation is safe.
		err = markHealable(err)
	}
	return err
}

// joinLoaded joins the pair the slot holds in LoadR and LoadS, filtered
// by the regions (regR, regS), inside the join-phase activation whose
// span is sp, cut into the join's stripe rows. It is the leaf of
// processPair and of PairExec.RunPair's in-memory path, so both emit the
// same sequence for the same records.
func (j *joiner) joinLoaded(sl *stripe.Slot, emit func([]geom.Pair), regR, regS region, sp *trace.Span) error {
	f := &filter{j: j, regR: regR, regS: regS}
	err := sl.JoinLoaded(emit, j.band, f.keep, j.cfg.Cancel, sp)
	return cmp.Or(err, j.fold(f))
}

// repartitionPair splits the larger side of an oversized pair with a
// finer grid and recurses on each sub-pair against the unsplit side.
func (j *joiner) repartitionPair(sl *stripe.Slot, emit func([]geom.Pair), fr, fs *diskio.File, regR, regS region, depth int) error {
	j.bump(func() { j.stats.Repartitions++ })
	nr, ns := recfile.NumKPEs(fr), recfile.NumKPEs(fs)
	n := max(iocost.PartCount(nr+ns, j.cfg.Memory, j.cfg.TuneFactor), 2)
	sub := newGrid(n*j.cfg.tilesPerPart(), n)

	splitR := nr >= ns
	src := fr
	if !splitR {
		src = fs
	}

	files, err := j.split(src, sub)
	removeFrom := func(lo int) {
		for _, f := range files[lo:] {
			j.reg.Remove(f)
		}
	}
	if err != nil {
		removeFrom(0)
		if depth == 0 {
			// The tear was found while splitting a top-level file, before
			// any sub-pair was joined: re-derivation is safe.
			err = markHealable(err)
		}
		return err
	}

	for i := 0; i < n; i++ {
		inner := gridRegion{g: sub, part: i}
		var perr error
		if splitR {
			perr = j.processPair(sl, emit, files[i], fs, andRegion{regR, inner}, regS, depth+1)
		} else {
			perr = j.processPair(sl, emit, fr, files[i], regR, andRegion{regS, inner}, depth+1)
		}
		j.reg.Remove(files[i])
		if perr != nil {
			removeFrom(i + 1)
			return perr
		}
	}
	return nil
}

// split writes src's records into the parts of the finer grid sub under
// a repartition activation. The files are returned even on error, for
// the caller to remove.
func (j *joiner) split(src *diskio.File, sub *grid) ([]*diskio.File, error) {
	pt := j.begin(PhaseRepartition)
	defer pt.End()
	n := sub.parts
	files := make([]*diskio.File, n)
	writers := make([]*recfile.KPEWriter, n)
	buf := j.dev.BufFor(j.cfg.Memory, n+1)
	for i := range files {
		files[i] = j.reg.Create()
		writers[i] = recfile.NewKPEWriter(files[i], buf)
	}
	stamp := make([]int, n)
	for i := range stamp {
		stamp[i] = -1
	}
	parts := make([]int, 0, 8)
	rd := recfile.NewKPEReader(src, buf)
	chk := j.cfg.Cancel.Stride()
	for gen := 0; ; gen++ {
		if err := chk.Point(); err != nil {
			return files, err
		}
		k, ok, err := rd.Next()
		if err != nil {
			return files, err
		}
		if !ok {
			break
		}
		parts = sub.partitionsOf(k.Rect, parts[:0], stamp, gen)
		for _, pi := range parts {
			if err := writers[pi].Write(k); err != nil {
				return files, err
			}
		}
	}
	for _, w := range writers {
		if err := w.Flush(); err != nil {
			return files, err
		}
	}
	return files, nil
}
