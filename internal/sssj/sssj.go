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
	var st Stats
	// The sweep's two cursors read in unit requests; the external sort
	// sizes its merges from Memory itself.
	unit := iocost.BufPages(cfg.BufPages)
	led := phase.New(cfg.Disk, cfg.Trace, st.PhaseCPU[:], st.PhaseIO[:], &st.FirstResultCPU, &st.FirstResultIO)

	// One sweep covers every exit path, so no raw copy or sorted run
	// outlives the join — success, failure or cancellation alike.
	reg := cfg.Disk.NewRegistry()
	defer reg.Sweep()

	// Phase 1: externally sort both relations by the left edge. Writing
	// the unsorted copy is charged too: unlike PBSM's partition files the
	// sort needs a materialized input it may read several times.
	pt := led.Begin(int(PhaseSort), PhaseSort.String())
	pt.Span.AddRecords(int64(len(R) + len(S)))
	sortedR, errR := sortByXL(R, cfg, reg, &st, pt.Span)
	var sortedS *diskio.File
	var errS error
	if errR == nil {
		sortedS, errS = sortByXL(S, cfg, reg, &st, pt.Span)
	}
	pt.End()
	if errR != nil {
		return st, joinerr.Wrap("sssj", PhaseSort.String(), errR)
	}
	if errS != nil {
		return st, joinerr.Wrap("sssj", PhaseSort.String(), errS)
	}

	// Phase 2: one synchronized streaming sweep over the sorted runs.
	pt = led.Begin(int(PhaseSweep), PhaseSweep.String())
	pt.Span.AddRecords(int64(len(R) + len(S)))
	sw := &streamSweep{
		rs:  newPeekReader(recfile.NewKPEReader(sortedR, unit)),
		ss:  newPeekReader(recfile.NewKPEReader(sortedS, unit)),
		st:  &st,
		chk: cfg.Cancel,
		emit: func(p geom.Pair) {
			led.First()
			st.Results++
			emit(p)
		},
	}
	kind := cfg.Algorithm
	if kind == "" || kind == sweep.NestedLoopsKind {
		kind = sweep.TrieKind
	}
	sw.statusR = sweep.NewStatus(kind, 0, 1, &st.Tests, &st.Touches)
	sw.statusS = sweep.NewStatus(kind, 0, 1, &st.Tests, &st.Touches)
	err := sw.run()
	pt.Span.SetAttr("maxResident", int64(st.MaxResident))
	pt.End()
	if err != nil {
		return st, joinerr.Wrap("sssj", PhaseSweep.String(), err)
	}
	publishMetrics(cfg.Metrics, &st, string(kind))
	return st, nil
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

// peekReader adds one record of lookahead to a KPE stream so the sweep
// can always pick the stream with the smaller next left edge. A read
// error is sticky: it surfaces from peek and stops the sweep.
type peekReader struct {
	r      *recfile.KPEReader
	head   geom.KPE
	loaded bool
	err    error
}

func newPeekReader(r *recfile.KPEReader) *peekReader {
	p := &peekReader{r: r}
	p.head, p.loaded, p.err = r.Next()
	return p
}

func (p *peekReader) peek() (geom.KPE, bool, error) { return p.head, p.loaded, p.err }

func (p *peekReader) next() geom.KPE {
	k := p.head
	p.head, p.loaded, p.err = p.r.Next()
	return k
}

// streamSweep merges the two xl-sorted streams and keeps one sweep-line
// status per relation: each arriving rectangle probes the other side's
// status (expiring passed rectangles lazily) and then joins its own.
// Only the rectangles currently stabbed by the sweep line are resident —
// the memory property SSSJ is named for.
type streamSweep struct {
	rs, ss           *peekReader
	statusR, statusS sweep.Status
	st               *Stats
	chk              *govern.Check
	emit             func(geom.Pair)
}

func (s *streamSweep) run() error {
	chk := s.chk.Stride()
	for {
		if err := chk.Point(); err != nil {
			return err
		}
		rk, rok, rerr := s.rs.peek()
		if rerr != nil {
			return rerr
		}
		sk, sok, serr := s.ss.peek()
		if serr != nil {
			return serr
		}
		switch {
		case !rok && !sok:
			return nil
		case rok && (!sok || rk.Rect.XL <= sk.Rect.XL):
			r := s.rs.next()
			s.statusS.Probe(r, func(m geom.KPE) {
				s.emit(geom.Pair{R: r.ID, S: m.ID})
			})
			s.statusR.Insert(r)
		default:
			sv := s.ss.next()
			s.statusR.Probe(sv, func(m geom.KPE) {
				s.emit(geom.Pair{R: m.ID, S: sv.ID})
			})
			s.statusS.Insert(sv)
		}
		if resident := s.statusR.Len() + s.statusS.Len(); resident > s.st.MaxResident {
			s.st.MaxResident = resident
		}
	}
}
