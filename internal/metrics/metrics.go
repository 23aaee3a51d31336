// Package metrics is the one home of every count and distribution of the
// join stack: a zero-dependency, process-lifetime registry of counters,
// gauges and power-of-two histograms with lock-cheap hot paths and two
// exposition formats (Prometheus text and self-describing JSONL).
//
// Package trace records where one join's time went — a hierarchical span
// record, one recorder per join — and keeps no counts. metrics holds the
// counts: the paper's totals (duplicates suppressed, reference-point
// tests, replication copies, sweep work, fills) next to what the process
// is doing right now (scheduler queue depth, worker occupancy, shard
// heartbeat age, join progress). One Registry serves the whole process
// for its lifetime; every subsystem registers named instruments against
// it and updates them from its hot paths. The counts of one join are the
// delta Snapshot().Sub(before); its result is the method's Stats.
//
// # Handles, not name lookups
//
// Registration (Registry.Counter and friends) resolves a name to an
// instrument handle once; call sites keep the handle and update it with
// a single atomic operation — no map lookup, no lock on the hot path.
// Instruments of the same name are shared: registering twice returns
// the same handle, so a per-join attach to a long-lived Registry is
// idempotent.
//
// # Nil fast path
//
// Mirroring package trace: every method is safe on a nil receiver and
// returns immediately. A nil *Registry returns nil handles, and every
// update on a nil handle is a single pointer test — so a stack built
// with metrics calls in place pays ≤1% of its uninstrumented runtime
// when no registry is attached (asserted by
// TestOverheadBudget/metrics at the repository root).
//
// # Naming
//
// Metric names are dotted lowercase ("diskio.read.requests",
// "sched.units.queued") and must be declared as constants in the owning
// package's metrics registration file (metrics.go or *_metrics.go) —
// the sjlint "metricname" analyzer enforces this, so the full metric
// namespace of the process is greppable from a handful of files. The
// exporters mangle dots to underscores for Prometheus.
//
// # Concurrency
//
// All instruments are safe for concurrent use; updates are atomic.
// Snapshot is safe to call at any time and sees each instrument's value
// atomically (the snapshot as a whole is not a cross-instrument
// barrier; counters updated mid-snapshot land in one side or the
// other, never torn).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Metric names owned by package metrics itself (the per-join progress
// estimator of progress.go). Declared here, in the package's metrics
// registration file, like every other package's names.
const (
	// JoinProgressTotal is the planned cost of the running join, in the
	// cost units of the method's planner (I/O cost units for PBSM,
	// record weights for S³J/SHJ).
	JoinProgressTotal = "join.progress.total"
	// JoinProgressDone is the planned cost already completed.
	JoinProgressDone = "join.progress.done"
	// JoinProgressFraction is done/total clamped to [0, 1]; it rises
	// monotonically over a join and reaches exactly 1.0 on success.
	JoinProgressFraction = "join.progress.fraction"
	// JoinProgressETASeconds is the estimated remaining wall time,
	// extrapolated from the completed fraction; 0 until the first unit
	// of progress lands.
	JoinProgressETASeconds = "join.progress.eta.seconds"
)

// Kind discriminates instrument types in snapshots and expositions.
type Kind string

// The instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing int64. A nil *Counter (from a
// nil Registry) is a valid no-op handle.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by delta (negative deltas are ignored —
// counters only go up).
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 instantaneous value: queue depths, in-flight
// counts, claimed bytes. A nil *Gauge is a valid no-op handle.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (either sign).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a float64 instantaneous value: fractions, seconds. A
// nil *FloatGauge is a valid no-op handle.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta and returns the new value (0 on nil).
func (g *FloatGauge) Add(delta float64) float64 {
	if g == nil {
		return 0
	}
	for {
		old := g.bits.Load()
		next := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return next
		}
	}
}

// SetMax stores v only if it exceeds the current value — the monotone
// store behind the progress fraction, which concurrent workers advance
// out of order.
func (g *FloatGauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// NumBuckets is the bucket count of a Histogram: bucket 0 counts
// observations v < 1 and bucket i ≥ 1 counts 2^(i-1) ≤ v < 2^i.
const NumBuckets = 48

// Histogram summarizes a stream of float64 observations with atomic
// count, sum, min, max and power-of-two magnitude buckets. A nil
// *Histogram is a valid no-op handle.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // +Inf until first observation
	maxBits atomic.Uint64 // -Inf until first observation
	buckets [NumBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketOf returns the magnitude bucket index of v.
func bucketOf(v float64) int {
	b := 0
	for x := v; x >= 1 && b < NumBuckets-1; x /= 2 {
		b++
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(next)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// View returns an atomic-per-field snapshot of the histogram.
func (h *Histogram) View() HistView {
	if h == nil {
		return HistView{}
	}
	v := HistView{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sumBits.Load()),
		Min:   math.Float64frombits(h.minBits.Load()),
		Max:   math.Float64frombits(h.maxBits.Load()),
	}
	for i := range h.buckets {
		v.Buckets[i] = h.buckets[i].Load()
	}
	if v.Count == 0 {
		v.Min, v.Max = 0, 0
	}
	return v
}

// HistView is one histogram's snapshot.
type HistView struct {
	Count    int64
	Sum      float64
	Min, Max float64
	Buckets  [NumBuckets]int64
}

// Mean returns the average observation (0 for an empty view).
func (v HistView) Mean() float64 {
	if v.Count == 0 {
		return 0
	}
	return v.Sum / float64(v.Count)
}

// Merge combines two views as if their observation streams had been
// observed by one histogram: counts, sums and buckets add; min and max
// take the extremes. The property test in metrics_test.go holds it to
// exactly that.
func (v HistView) Merge(o HistView) HistView {
	switch {
	case v.Count == 0:
		return o
	case o.Count == 0:
		return v
	}
	m := HistView{
		Count: v.Count + o.Count,
		Sum:   v.Sum + o.Sum,
		Min:   math.Min(v.Min, o.Min),
		Max:   math.Max(v.Max, o.Max),
	}
	for i := range m.Buckets {
		m.Buckets[i] = v.Buckets[i] + o.Buckets[i]
	}
	return m
}

// Sub returns the delta view v minus an earlier view of the SAME
// histogram: counts, sums and buckets subtract; min and max keep the
// current values (extremes have no delta form).
func (v HistView) Sub(prev HistView) HistView {
	d := HistView{
		Count: v.Count - prev.Count,
		Sum:   v.Sum - prev.Sum,
		Min:   v.Min,
		Max:   v.Max,
	}
	for i := range d.Buckets {
		d.Buckets[i] = v.Buckets[i] - prev.Buckets[i]
	}
	return d
}

// instrument is one registered name: exactly one of the handle fields
// is set, or vec is set for a label family.
type instrument struct {
	kind    Kind
	counter *Counter
	gauge   *Gauge
	fgauge  *FloatGauge
	hist    *Histogram
	vec     *vec
	// float reports whether a gauge family is float-valued (exposition
	// renders both as floats; snapshots keep the distinction only for
	// Value lookups).
	float bool
}

// vec is a single-label instrument family; children are created on
// first use of a label value.
type vec struct {
	labelKey string
	mu       sync.Mutex
	children map[string]*instrument // guarded by mu
	make     func() *instrument
}

func (v *vec) child(label string) *instrument {
	v.mu.Lock()
	defer v.mu.Unlock()
	in := v.children[label]
	if in == nil {
		in = v.make()
		v.children[label] = in
	}
	return in
}

// Registry holds the process's instruments. The zero value is not
// usable; call New. All methods are safe on a nil receiver (returning
// nil handles) and safe for concurrent use otherwise.
type Registry struct {
	mu    sync.Mutex
	names map[string]*instrument // guarded by mu
}

// New returns an empty Registry.
func New() *Registry {
	return &Registry{names: make(map[string]*instrument)}
}

// register resolves name to its instrument, creating it with mk on
// first registration. Re-registering a name as a different kind is a
// programming error and panics — names are package-level consts, so
// the panic fires in the first test that touches the package.
func (r *Registry) register(name string, kind Kind, isVec bool, mk func() *instrument) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	in := r.names[name]
	if in == nil {
		in = mk()
		r.names[name] = in
		return in
	}
	if in.kind != kind || (in.vec != nil) != isVec {
		panic(fmt.Sprintf("metrics: %q re-registered as %s (vec=%v), was %s (vec=%v)",
			name, kind, isVec, in.kind, in.vec != nil))
	}
	return in
}

// Counter returns the named counter handle, registering it on first
// use. Nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, KindCounter, false, func() *instrument {
		return &instrument{kind: KindCounter, counter: &Counter{}}
	}).counter
}

// Gauge returns the named int64 gauge handle. Nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, KindGauge, false, func() *instrument {
		return &instrument{kind: KindGauge, gauge: &Gauge{}}
	}).gauge
}

// FloatGauge returns the named float64 gauge handle. Nil on a nil
// registry.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	return r.register(name, KindGauge, false, func() *instrument {
		return &instrument{kind: KindGauge, fgauge: &FloatGauge{}, float: true}
	}).fgauge
}

// Histogram returns the named histogram handle. Nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, KindHistogram, false, func() *instrument {
		return &instrument{kind: KindHistogram, hist: newHistogram()}
	}).hist
}

// CounterVec is a counter family keyed by one label. A nil *CounterVec
// is a valid no-op handle whose With returns nil counters.
type CounterVec struct{ v *vec }

// With returns the child counter for one label value.
func (cv *CounterVec) With(label string) *Counter {
	if cv == nil {
		return nil
	}
	return cv.v.child(label).counter
}

// CounterVec returns the named counter family with the given label key.
// Nil on a nil registry.
func (r *Registry) CounterVec(name, labelKey string) *CounterVec {
	if r == nil {
		return nil
	}
	in := r.register(name, KindCounter, true, func() *instrument {
		return &instrument{kind: KindCounter, vec: &vec{
			labelKey: labelKey,
			children: make(map[string]*instrument),
			make:     func() *instrument { return &instrument{kind: KindCounter, counter: &Counter{}} },
		}}
	})
	return &CounterVec{v: in.vec}
}

// GaugeVec is an int64 gauge family keyed by one label. A nil
// *GaugeVec is a valid no-op handle.
type GaugeVec struct{ v *vec }

// With returns the child gauge for one label value.
func (gv *GaugeVec) With(label string) *Gauge {
	if gv == nil {
		return nil
	}
	return gv.v.child(label).gauge
}

// GaugeVec returns the named gauge family with the given label key.
// Nil on a nil registry.
func (r *Registry) GaugeVec(name, labelKey string) *GaugeVec {
	if r == nil {
		return nil
	}
	in := r.register(name, KindGauge, true, func() *instrument {
		return &instrument{kind: KindGauge, vec: &vec{
			labelKey: labelKey,
			children: make(map[string]*instrument),
			make:     func() *instrument { return &instrument{kind: KindGauge, gauge: &Gauge{}} },
		}}
	})
	return &GaugeVec{v: in.vec}
}

// FloatGaugeVec is a float64 gauge family keyed by one label. A nil
// *FloatGaugeVec is a valid no-op handle.
type FloatGaugeVec struct{ v *vec }

// With returns the child gauge for one label value.
func (gv *FloatGaugeVec) With(label string) *FloatGauge {
	if gv == nil {
		return nil
	}
	return gv.v.child(label).fgauge
}

// FloatGaugeVec returns the named float gauge family with the given
// label key. Nil on a nil registry.
func (r *Registry) FloatGaugeVec(name, labelKey string) *FloatGaugeVec {
	if r == nil {
		return nil
	}
	in := r.register(name, KindGauge, true, func() *instrument {
		return &instrument{kind: KindGauge, vec: &vec{
			labelKey: labelKey,
			children: make(map[string]*instrument),
			make: func() *instrument {
				return &instrument{kind: KindGauge, fgauge: &FloatGauge{}, float: true}
			},
		}}
	})
	return &FloatGaugeVec{v: in.vec}
}

// Point is one instrument's value in a Snapshot. LabelKey/Label are
// empty for plain (non-vec) instruments. Value carries counter and
// gauge readings; Hist is set for histograms.
type Point struct {
	Name     string
	LabelKey string
	Label    string
	Kind     Kind
	Value    float64
	Hist     *HistView
}

// Snapshot is a point-in-time reading of every instrument, sorted by
// (Name, Label) so consecutive snapshots diff positionally.
type Snapshot struct {
	Points []Point
}

// Snapshot reads every instrument. Each point is read atomically; the
// set as a whole is not a barrier across instruments. Nil registries
// return an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	type named struct {
		name string
		in   *instrument
	}
	all := make([]named, 0, len(r.names))
	for n, in := range r.names {
		all = append(all, named{n, in})
	}
	r.mu.Unlock()

	var s Snapshot
	add := func(name, labelKey, label string, in *instrument) {
		p := Point{Name: name, LabelKey: labelKey, Label: label, Kind: in.kind}
		switch {
		case in.counter != nil:
			p.Value = float64(in.counter.Value())
		case in.gauge != nil:
			p.Value = float64(in.gauge.Value())
		case in.fgauge != nil:
			p.Value = in.fgauge.Value()
		case in.hist != nil:
			v := in.hist.View()
			p.Hist = &v
			p.Value = v.Sum
		}
		s.Points = append(s.Points, p)
	}
	for _, n := range all {
		if n.in.vec == nil {
			add(n.name, "", "", n.in)
			continue
		}
		n.in.vec.mu.Lock()
		labels := make([]string, 0, len(n.in.vec.children))
		for l := range n.in.vec.children {
			labels = append(labels, l)
		}
		children := make(map[string]*instrument, len(labels))
		for l, c := range n.in.vec.children {
			children[l] = c
		}
		n.in.vec.mu.Unlock()
		sort.Strings(labels)
		for _, l := range labels {
			add(n.name, n.in.vec.labelKey, l, children[l])
		}
	}
	sort.Slice(s.Points, func(i, j int) bool {
		if s.Points[i].Name != s.Points[j].Name {
			return s.Points[i].Name < s.Points[j].Name
		}
		return s.Points[i].Label < s.Points[j].Label
	})
	return s
}

// Sub returns the delta snapshot s minus an earlier snapshot of the
// same registry: counters and histograms subtract, gauges keep their
// current (instantaneous) reading. Points absent from prev pass
// through unchanged.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	idx := make(map[[2]string]Point, len(prev.Points))
	for _, p := range prev.Points {
		idx[[2]string{p.Name, p.Label}] = p
	}
	out := Snapshot{Points: make([]Point, 0, len(s.Points))}
	for _, p := range s.Points {
		q, ok := idx[[2]string{p.Name, p.Label}]
		if ok && p.Kind == q.Kind {
			switch p.Kind {
			case KindCounter:
				p.Value -= q.Value
			case KindHistogram:
				if p.Hist != nil && q.Hist != nil {
					d := p.Hist.Sub(*q.Hist)
					p.Hist = &d
					p.Value = d.Sum
				}
			}
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// Value returns the reading of the named plain instrument (counter or
// gauge), or 0 when absent.
func (s Snapshot) Value(name string) float64 {
	return s.ValueL(name, "")
}

// ValueL returns the reading of one (name, label) point, or 0 when
// absent.
func (s Snapshot) ValueL(name, label string) float64 {
	i := sort.Search(len(s.Points), func(i int) bool {
		if s.Points[i].Name != name {
			return s.Points[i].Name > name
		}
		return s.Points[i].Label >= label
	})
	if i < len(s.Points) && s.Points[i].Name == name && s.Points[i].Label == label {
		return s.Points[i].Value
	}
	return 0
}

// Hist returns the named histogram's view, or an empty view when
// absent.
func (s Snapshot) Hist(name string) HistView {
	for _, p := range s.Points {
		if p.Name == name && p.Hist != nil {
			return *p.Hist
		}
	}
	return HistView{}
}
