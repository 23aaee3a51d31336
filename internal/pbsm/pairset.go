package pbsm

import (
	"errors"
	"fmt"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/stripe"
)

// This file is the pair-subset execution API the shard layer builds on:
// a coordinator plans the top-level grid ONCE from the full inputs
// (PlanGridFor), derives any partition's records from source on demand
// (PartitionSlices — the same scatter the partition phase and the heal
// path run), and executes individual partition pairs through a
// PairExec. Because the grid, the memory budget and the repartition
// recursion are identical to a single-process run, each pair's emitted
// pair sequence is identical too — and under the Reference Point Method
// every result belongs to exactly one pair, so a union of per-pair
// sequences in partition order reproduces the serial run byte for byte,
// no matter which process executed which pair.

// GridSpec is a serializable description of the top-level PBSM grid: it
// crosses the coordinator/worker process boundary in a job frame and
// fully reconstructs the grid (tile geometry and the tile→partition
// table) on the other side.
type GridSpec struct {
	NX    int `json:"nx"`
	NY    int `json:"ny"`
	Parts int `json:"parts"`
	// Assign is the tile→partition table, NX·NY entries in [0, Parts),
	// tile id = row·NX + column. It is the plan: whoever holds the spec
	// scatters and region-tests by this table and nothing else. Absent
	// only where it could say nothing: Parts == 1, where no grid is used.
	Assign []int32 `json:"assign,omitempty"`
	// Rows is the stripe count of every loaded pair, repartition leaves
	// included: stripe.Count of the whole join's records, over the unit
	// square, so that every pair is cut along the data space's own rows
	// at the one-partition join's density (package stripe). A pair's own
	// count would cut its records, spread over tiles across the whole
	// space, into stripes P times too tall. Zero when Parts == 1, whose
	// one pair is the join and counts its own records.
	Rows int `json:"rows,omitempty"`
}

// PlanGrid computes the top-level grid for joining nr+ns records under
// cfg's memory budget from the counts alone — formula (1) with the
// tuning factor, NT = TilesPerPartition × P square-ish tiles, and the
// table filled with the [PD 96] hash, plus the join's stripe rows. Parts
// == 1 means everything fits in memory and no grid is used (the whole
// space is one partition). Only cfg.Memory, TuneFactor and
// TilesPerPartition are consulted; cfg.Memory must be positive.
// Join and the shard coordinator plan with PlanGridFor, which keeps this
// grid and refills the table from the data.
func PlanGrid(nr, ns int, cfg Config) GridSpec {
	p := iocost.PartCount(int64(nr+ns), cfg.Memory, cfg.TuneFactor)
	if p == 1 {
		return GridSpec{NX: 1, NY: 1, Parts: 1}
	}
	g := newGrid(p*cfg.tilesPerPart(), p)
	return GridSpec{NX: g.nx, NY: g.ny, Parts: g.parts, Assign: g.assign, Rows: stripe.Count(nr + ns)}
}

// ReplicationRate estimates the grid's copies per record from a sample:
// the average number of tiles a sample rectangle overlaps, from the
// planner's own tile histogram (tileCounts, hence geom.ClampIdx), so
// out-of-domain coordinates clamp here as they do in the scatter. It
// drives the trade-off behind NT ≥ P — finer tiling balances partitions
// but replicates more. An empty sample estimates 1.
func (s GridSpec) ReplicationRate(sample []geom.KPE) float64 {
	if len(sample) == 0 {
		return 1
	}
	counts, _ := (&grid{nx: s.NX, ny: s.NY}).tileCounts(sample, nil) // no Check, no error
	var copies float64
	for _, c := range counts {
		copies += c
	}
	return copies / float64(len(sample))
}

// grid reconstructs the in-memory grid. Only meaningful for a Valid spec
// with Parts > 1.
func (s GridSpec) grid() *grid {
	return &grid{nx: s.NX, ny: s.NY, parts: s.Parts, assign: s.Assign}
}

// Valid reports whether the spec describes a usable grid: a grid of more
// than one partition has a table of NX·NY entries in [0, Parts) and its
// stripe rows.
func (s GridSpec) Valid() bool {
	if s.Parts < 1 || s.NX < 1 || s.NY < 1 || s.NX*s.NY < s.Parts {
		return false
	}
	if s.Parts == 1 && len(s.Assign) == 0 {
		return true
	}
	if len(s.Assign) != s.NX*s.NY || s.Rows < 1 {
		return false
	}
	for _, p := range s.Assign {
		if p < 0 || int(p) >= s.Parts {
			return false
		}
	}
	return true
}

// String describes the spec without spelling out the table.
func (s GridSpec) String() string {
	return fmt.Sprintf("{%d×%d tiles, %d parts, table of %d, %d rows}", s.NX, s.NY, s.Parts, len(s.Assign), s.Rows)
}

// PartitionSlices derives the records of the requested top-level
// partitions from a base input, in input order with grid replication —
// the same derivation the partition phase streams to disk and the heal
// path re-runs after corruption. Every requested partition is present
// in the result, empty ones included (an empty partition still joins —
// and seals — as an empty pair). The scatter runs twice: once to count
// each requested partition's copies, once to write them into one flat
// buffer per call at prefix-sum offsets, so every copy is allocated
// once. Each slice is a cap-clipped window of that buffer, so an append
// to one partition reallocates instead of spilling into its neighbour.
// In the Parts == 1 case the single slice aliases ks; callers must
// treat the slices as read-only.
func PartitionSlices(ks []geom.KPE, gs GridSpec, parts []int, chk *govern.Check) (map[int][]geom.KPE, error) {
	if !gs.Valid() {
		return nil, joinerr.Wrap("pbsm", "partition", fmt.Errorf("invalid grid spec %s", gs))
	}
	out := make(map[int][]geom.KPE, len(parts))
	for _, p := range parts {
		if p < 0 || p >= gs.Parts {
			return nil, joinerr.Wrap("pbsm", "partition", fmt.Errorf("partition %d out of range [0, %d)", p, gs.Parts))
		}
		out[p] = nil
	}
	if gs.Parts == 1 {
		if _, ok := out[0]; ok {
			out[0] = ks
		}
		return out, nil
	}
	g := gs.grid()
	count := make([]int, gs.Parts)
	if err := g.scatter(ks, chk, func(part int, _ geom.KPE) error {
		count[part]++
		return nil
	}); err != nil {
		return nil, joinerr.Wrap("pbsm", "partition", err)
	}
	// next[p] is where partition p's next copy goes; requested partitions
	// take consecutive windows of flat, the others none.
	next := make([]int, gs.Parts)
	total := 0
	for p := range next {
		if _, ok := out[p]; ok {
			next[p] = total
			total += count[p]
		} else {
			next[p] = -1
		}
	}
	flat := make([]geom.KPE, total)
	if err := g.scatter(ks, chk, func(part int, k geom.KPE) error {
		if i := next[part]; i >= 0 {
			flat[i] = k
			next[part] = i + 1
		}
		return nil
	}); err != nil {
		return nil, joinerr.Wrap("pbsm", "partition", err)
	}
	for p := range out {
		if n := count[p]; n > 0 {
			hi := next[p]
			out[p] = flat[hi-n : hi : hi]
		}
	}
	return out, nil
}

// PairExec executes individual top-level partition pairs of one planned
// join: the sharded counterpart of the join phase's per-pair loop. It
// owns a temp-file registry on cfg.Disk (swept by Close) and reuses the
// full join machinery per pair — memory-budget check, recursive
// repartitioning, RPM duplicate elimination — with the SAME Memory and
// tuning as the planning run, so each pair emits exactly the sequence
// the single-process join would emit for it.
//
// Only DupRPM is supported: it makes each pair's output globally
// duplicate-free on its own, which is what allows pairs to be executed
// by different processes without a cross-pair dedup phase; DupSort would
// need exactly that phase and is rejected.
// A PairExec is not safe for concurrent use; one goroutine runs pairs
// sequentially.
type PairExec struct {
	j  *joiner // j.grid is nil when gs.Parts == 1
	gs GridSpec
}

// NewPairExec validates cfg against gs and prepares an executor.
// cfg.Disk and a positive cfg.Memory are required; cfg.Dup must be
// DupRPM, the default.
func NewPairExec(cfg Config, gs GridSpec) (*PairExec, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Dup == DupSort {
		return nil, joinerr.Wrap("pbsm", "config", fmt.Errorf("pair-subset execution requires DupRPM, whose pairs are duplicate-free on their own, got %v", cfg.Dup))
	}
	if !gs.Valid() {
		return nil, joinerr.Wrap("pbsm", "config", fmt.Errorf("invalid grid spec %s", gs))
	}
	e := &PairExec{j: newJoiner(cfg), gs: gs}
	e.j.stats.P = gs.Parts
	if gs.Parts > 1 {
		e.j.setGrid(gs)
	}
	return e, nil
}

// RunPair joins top-level partition pair part, whose per-side records
// rs and ss must be the partition's slices as derived by
// PartitionSlices; it reads them and never modifies them. Results go to
// sink in the exact order the single-process join phase would emit them
// for this pair. A pair with an empty side emits nothing and touches no
// disk. A pair that fits Memory is copied into the slot and joined there,
// the leaf processPair reaches after reading the pair's files, so it
// touches no disk either. Only an oversized pair has its partition files
// written, joined with the repartition recursion and removed within the
// call; corruption of those files surfaces as an error — the caller
// retries the whole pair, which IS the re-derivation heal at shard
// granularity.
func (e *PairExec) RunPair(part int, rs, ss []geom.KPE, sink func(geom.Pair)) error {
	if part < 0 || part >= e.gs.Parts {
		return joinerr.Wrap("pbsm", PhaseJoin.String(), fmt.Errorf("partition %d out of range [0, %d)", part, e.gs.Parts))
	}
	j := e.j
	counted := func(p geom.Pair) {
		j.stats.Results++
		sink(p)
	}
	if e.gs.Parts == 1 {
		// Everything fits: the same striped in-memory join as run's P == 1
		// path, hence the same emission order.
		return j.joinInMemory(rs, ss, counted)
	}
	emit := func(ps []geom.Pair) {
		//lint:ignore checkpoint a batch is at most stripeBatch pairs, handed over between two of the stripe loop's own checkpoints
		for _, p := range ps {
			counted(p)
		}
	}
	j.stats.CopiesR += int64(len(rs))
	j.stats.CopiesS += int64(len(ss))
	if len(rs) == 0 || len(ss) == 0 {
		// Nothing can join, and with no file written nothing can be torn:
		// there is no empty side to verify.
		return nil
	}
	reg := gridRegion{g: j.grid, part: part}
	sl := j.ex.Slot()
	if n := int64(len(rs) + len(ss)); n*geom.KPESize <= j.cfg.Memory {
		// processPair's own test: this pair would be loaded, not split.
		// Copy rather than alias: the kernel reorders its load buffers.
		pt := j.begin(PhaseJoin)
		defer pt.End()
		pt.Span.AddRecords(n)
		sl.LoadR = append(sl.LoadR[:0], rs...)
		sl.LoadS = append(sl.LoadS[:0], ss...)
		return joinerr.Wrap("pbsm", PhaseJoin.String(), j.joinLoaded(sl, emit, reg, reg, pt.Span))
	}

	// Write the pair's partition files exactly as the partition phase
	// would (same buffering policy), then run the standard per-pair
	// machinery on them: repartitioning is file-based.
	fr, fs, err := e.writeSides(rs, ss)
	defer func() {
		j.reg.Remove(fr)
		j.reg.Remove(fs)
	}()
	if err != nil {
		return joinerr.Wrap("pbsm", PhasePartition.String(), err)
	}
	err = j.processPair(sl, emit, fr, fs, reg, reg, 0)
	// In-process healing re-derives from base inputs this executor does
	// not hold; at shard granularity the retry-with-rederivation happens
	// one level up, so the healable marker is stripped to its cause.
	var he *healableError
	if errors.As(err, &he) {
		err = he.err
	}
	return joinerr.Wrap("pbsm", PhaseJoin.String(), err)
}

// writeSides writes both sides of a pair under one partition activation.
// The files are returned even on error, for the caller to remove.
func (e *PairExec) writeSides(rs, ss []geom.KPE) (fr, fs *diskio.File, err error) {
	pt := e.j.begin(PhasePartition)
	defer pt.End()
	pt.Span.AddRecords(int64(len(rs) + len(ss)))
	fr, err = e.writeSide(rs)
	fs, errS := e.writeSide(ss)
	if err == nil {
		err = errS
	}
	return fr, fs, err
}

// writeSide streams one side's records to a fresh registered file with
// the partition phase's buffering policy.
func (e *PairExec) writeSide(ks []geom.KPE) (*diskio.File, error) {
	f := e.j.reg.Create()
	w := recfile.NewKPEWriter(f, e.j.dev.BufFor(e.j.cfg.Memory, e.gs.Parts))
	st := e.j.cfg.Cancel.Stride()
	for i := range ks {
		if err := st.Point(); err != nil {
			return f, err
		}
		if err := w.Write(ks[i]); err != nil {
			return f, err
		}
	}
	return f, w.Flush()
}

// Stats returns the executor's accumulated statistics.
func (e *PairExec) Stats() Stats { return e.j.snapshot() }

// Close sweeps the executor's temp files. Always call it; it is the
// same every-exit-path sweep the full join performs.
func (e *PairExec) Close() {
	e.j.reg.Sweep()
}
