// Package phase is the ledger the four join methods report their per-phase
// results through — the CPU and I/O split of the paper's Figures 3, 6 and
// 8 and Table 3, and the time to first result of §3.1. It owns the phase
// clock: an activation samples the wall clock and the disk's counters when
// it begins, charges the deltas to its phase when it ends, and mirrors the
// interval as a trace span. A phase may be activated many times (once per
// partition pair in PBSM's join phase). The ledger knows the disk and the
// trace and no method: a phase is an index into the arrays it is handed.
package phase

import (
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/trace"
)

// Ledger charges one join's time and I/O to its phases.
type Ledger struct {
	// SpanOnly makes activations begun while it is set open their span and
	// charge nothing: overlapping workers would double-count wall time and
	// race on the arrays, so the region's one outer activation charges.
	// Set it before the workers start, clear it after they have joined.
	SpanOnly bool

	disk     *diskio.Disk
	parent   *trace.Span
	cpu      []time.Duration
	io       []diskio.Stats
	firstCPU *time.Duration
	firstIO  *float64

	start      time.Time
	startUnits float64
	fired      bool
}

// New opens the ledger of a join that begins now on disk, its spans under
// parent (nil: none). cpu and io are the join's Stats.PhaseCPU[:] and
// PhaseIO[:]; firstCPU and firstIO are where First records (nil: unused).
func New(disk *diskio.Disk, parent *trace.Span, cpu []time.Duration, io []diskio.Stats, firstCPU *time.Duration, firstIO *float64) *Ledger {
	return &Ledger{
		disk: disk, parent: parent, cpu: cpu, io: io, firstCPU: firstCPU, firstIO: firstIO,
		start: time.Now(), startUnits: disk.Stats().CostUnits,
	}
}

// First records the time and cost units spent since New — time to first
// result — on its first call only; call it as each result is delivered
// (the test inlines, the rest is out of line for that).
func (l *Ledger) First() {
	if !l.fired {
		l.first()
	}
}

func (l *Ledger) first() {
	l.fired = true
	*l.firstCPU = time.Since(l.start)
	*l.firstIO = l.disk.Stats().CostUnits - l.startUnits
}

// Activation is one begun interval of a phase. Like a trace span it is
// ended exactly once, by "defer a.End()" on the line after it begins, so
// a phase that ends before its function returns is a function of its own
// (sjlint's spanend checks it as one).
type Activation struct {
	// Span is the activation's trace span (nil without a trace): the
	// parent of what runs inside it, and where its attributes go.
	Span *trace.Span

	l     *Ledger // nil: span-only, End charges nothing
	phase int
	t0    time.Time
	io0   diskio.Stats
}

// Begin opens an activation of phase under a span called name — the
// phase's own name, or what the trace should show instead (PBSM's heal
// charges the partition phase but reads "heal").
func (l *Ledger) Begin(phase int, name string) Activation {
	if l.SpanOnly {
		return Activation{Span: l.parent.Child(name)}
	}
	// Fields evaluate left to right: the span opens before t0 and io0
	// are sampled.
	return Activation{Span: l.parent.Child(name), l: l, phase: phase, t0: time.Now(), io0: l.disk.Stats()}
}

// End charges the activation's elapsed time and I/O to its phase and
// closes its span.
func (a Activation) End() {
	if a.l != nil {
		a.l.cpu[a.phase] += time.Since(a.t0)
		a.l.io[a.phase].Add(a.l.disk.Stats().Sub(a.io0))
	}
	a.Span.End()
}

// TotalIO sums per-phase I/O statistics.
func TotalIO(io []diskio.Stats) diskio.Stats {
	var t diskio.Stats
	for i := range io {
		t.Add(io[i])
	}
	return t
}

// TotalCPU sums per-phase CPU times.
func TotalCPU(cpu []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range cpu {
		t += d
	}
	return t
}
