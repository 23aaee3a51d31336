// Package sssj implements the Scalable Sweeping-Based Spatial Join of
// Arge, Procopiuc, Ramaswamy, Suel & Vitter [APR+ 98], the third
// no-index competitor the paper's related-work section discusses: sort
// both relations by the left edge of their rectangles, then run one
// plane sweep across the whole data space.
//
// SSSJ produces no duplicates (nothing is replicated) and is worst-case
// optimal, but — as §1 of the paper emphasizes via [Gra 93] — it cannot
// produce a single result before *both* inputs are completely sorted,
// which blocks pipelined processing in an operator tree. The FirstResult
// statistics expose exactly that.
//
// The original algorithm falls back to external distribution sweeping
// when the sweep-line status outgrows memory; like the authors' own
// experiments on real data, this implementation keeps the status in
// memory (a list or an interval trie) and reports the high-water mark in
// MaxResident so the assumption is checkable.
package sssj

import (
	"encoding/binary"
	"fmt"
	"math"
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
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
)

// Phase indexes the per-phase statistics.
type Phase int

// The two SSSJ phases.
const (
	PhaseSort Phase = iota
	PhaseSweep
	numPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseSort:
		return "sort"
	case PhaseSweep:
		return "sweep"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Config controls an SSSJ join.
type Config struct {
	// Disk is the simulated device for the sorted runs. Required.
	Disk *diskio.Disk
	// Memory is the byte budget for sorting and the sweep status. Required.
	Memory int64
	// Algorithm organizes the sweep-line status. Unlike PBSM, SSSJ runs
	// ONE sweep over the full relations, so [APR+ 98] pair it with a
	// tree-structured status; the default is the interval-trie sweep.
	Algorithm sweep.Kind
	// BufPages caps every file stream's buffer at this many pages. Values
	// < 1 select iocost.DefaultBufPages for the raw copies and the sweep's
	// cursors, give the sort's run formation the chunk's window and let
	// its merges take their share of Memory (extsort.Config.BufPages).
	BufPages int
	// Trace is the parent span phase spans nest under; nil disables
	// instrumentation.
	Trace *trace.Span
	// Cancel is the join's cancellation checkpoint; nil disables
	// cancellation.
	Cancel *govern.Check
	// Parallel is the worker count for run formation and the merge groups
	// of the two input sorts (< 2 = serial); the sweep is one ordered
	// pass. Results and I/O units are identical at every worker count.
	Parallel int
	// Metrics, when non-nil, publishes the join's totals (sweep tests and
	// touches, sort runs).
	Metrics *metrics.Registry
}

// Stats reports what an SSSJ join did.
type Stats struct {
	Results     int64
	Tests       int64
	Touches     int64 // sweep status node touches (see sweep.Algorithm)
	SortRuns    int   // initial runs over both relation sorts
	MergePasses int

	// MaxResident is the peak number of KPEs on the sweep-line status
	// across both relations — the quantity the original algorithm guards
	// with its external fallback.
	MaxResident int

	PhaseIO  [numPhases]diskio.Stats
	PhaseCPU [numPhases]time.Duration

	FirstResultCPU time.Duration
	FirstResultIO  float64
}

// TotalIO sums the per-phase I/O statistics.
func (s *Stats) TotalIO() diskio.Stats { return phase.TotalIO(s.PhaseIO[:]) }

// TotalCPU sums the per-phase CPU times.
func (s *Stats) TotalCPU() time.Duration { return phase.TotalCPU(s.PhaseCPU[:]) }

// Join computes the spatial intersection join of R and S, delivering
// each result pair exactly once to emit. The inputs are not modified.
func Join(R, S []geom.KPE, cfg Config, emit func(geom.Pair)) (Stats, error) {
	if cfg.Disk == nil {
		return Stats{}, joinerr.Wrap("sssj", "config", fmt.Errorf("Config.Disk is required"))
	}
	if cfg.Memory <= 0 {
		return Stats{}, joinerr.Wrap("sssj", "config", fmt.Errorf("Config.Memory must be positive, got %d", cfg.Memory))
	}
	if err := cfg.Algorithm.Validate(); err != nil {
		return Stats{}, joinerr.Wrap("sssj", "config", err)
	}
	if cfg.Algorithm == "" || cfg.Algorithm == sweep.NestedLoopsKind {
		cfg.Algorithm = sweep.TrieKind
	}
	var st Stats
	led := phase.New(cfg.Disk, cfg.Trace, st.PhaseCPU[:], st.PhaseIO[:], &st.FirstResultCPU, &st.FirstResultIO)

	// One sweep covers every exit path, so no raw copy or sorted run
	// outlives the join — success, failure or cancellation alike.
	reg := cfg.Disk.NewRegistry()
	defer reg.Sweep()

	sorted, err := sortPhase(R, S, cfg, reg, &st, led)
	if err != nil {
		return st, joinerr.Wrap("sssj", PhaseSort.String(), err)
	}
	if err := sweepPhase(sorted, cfg, &st, led, emit); err != nil {
		return st, joinerr.Wrap("sssj", PhaseSweep.String(), err)
	}
	publishMetrics(cfg.Metrics, &st, string(cfg.Algorithm))
	return st, nil
}

// sortPhase is phase 1: it externally sorts both relations by the left
// edge into the two runs the sweep merges. Writing the unsorted copy is
// charged too: unlike PBSM's partition files the sort needs a
// materialized input it may read several times.
func sortPhase(R, S []geom.KPE, cfg Config, reg *diskio.Registry, st *Stats, led *phase.Ledger) ([]extsort.Run, error) {
	pt := led.Begin(int(PhaseSort), PhaseSort.String())
	defer pt.End()
	pt.Span.AddRecords(int64(len(R) + len(S)))
	sortedR, err := sortByXL(R, cfg, reg, st, pt.Span)
	if err != nil {
		return nil, err
	}
	sortedS, err := sortByXL(S, cfg, reg, st, pt.Span)
	if err != nil {
		return nil, err
	}
	return []extsort.Run{{File: sortedR, Recs: int64(len(R))}, {File: sortedS, Recs: int64(len(S))}}, nil
}

// sweepPhase is phase 2: one sweep over the two sorted runs, read as one
// merge by left edge, R before S on equal keys. Each arriving rectangle
// probes the other relation's sweep.Status (expiring passed rectangles
// lazily) and then joins its own, the step of the in-memory sweeps, with
// one report function for the whole join. Only the rectangles
// currently stabbed by the sweep line are resident — the memory property
// SSSJ is named for. The two cursors read in unit requests; the external
// sort sizes its merges from Memory itself.
func sweepPhase(sorted []extsort.Run, cfg Config, st *Stats, led *phase.Ledger, emit func(geom.Pair)) error {
	pt := led.Begin(int(PhaseSweep), PhaseSweep.String())
	defer pt.End()
	pt.Span.AddRecords(sorted[0].Recs + sorted[1].Recs)
	status := [2]*sweep.Status{
		sweep.NewStatus(cfg.Algorithm, 0, 1, &st.Tests, &st.Touches),
		sweep.NewStatus(cfg.Algorithm, 0, 1, &st.Tests, &st.Touches),
	}
	report := func(r, s geom.KPE) {
		led.First()
		st.Results++
		emit(geom.Pair{R: r.ID, S: s.ID})
	}
	mcfg := extsort.Config{Disk: cfg.Disk, RecordSize: geom.KPESize, Cancel: cfg.Cancel, Key: xlKey}
	_, err := extsort.Merge(sorted, iocost.BufPages(cfg.BufPages), mcfg, func(rec []byte, rel int) error {
		k := geom.DecodeKPE(rec)
		status[1-rel].Probe(k, rel == 1, report)
		status[rel].Insert(k)
		st.MaxResident = max(st.MaxResident, status[0].Len()+status[1].Len())
		return nil
	})
	pt.Span.SetAttr("maxResident", int64(st.MaxResident))
	return err
}

// sortByXL materializes ks on disk, in unit requests, and externally
// sorts it by rect.XL.
func sortByXL(ks []geom.KPE, cfg Config, reg *diskio.Registry, st *Stats, span *trace.Span) (*diskio.File, error) {
	raw := reg.Create()
	defer reg.Remove(raw)
	w := recfile.NewKPEWriter(raw, iocost.BufPages(cfg.BufPages))
	chk := cfg.Cancel.Stride()
	for _, k := range ks {
		if err := chk.Point(); err != nil {
			return nil, err
		}
		if err := w.Write(k); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	sorted, sst, err := extsort.Sort(raw, extsort.Config{
		Disk:       cfg.Disk,
		RecordSize: geom.KPESize,
		Memory:     cfg.Memory,
		BufPages:   cfg.BufPages,
		Parallel:   cfg.Parallel,
		Trace:      span,
		Reg:        reg,
		Cancel:     cfg.Cancel,
		Key:        xlKey,
	})
	st.SortRuns += sst.Runs
	st.MergePasses += sst.MergePass
	return sorted, err
}

// xlKey is the sort key of a serialized KPE: geom.OrderedKey of its
// rect.XL, the second field (bytes 8..16). extsort breaks ties by input
// position, so the runs are in the order sweep sorts a slice in.
func xlKey(rec []byte) uint64 {
	return geom.OrderedKey(math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])))
}
