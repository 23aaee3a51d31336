// Package trace records where one join's time and I/O went: a
// recorder of hierarchical spans and instant events that every join
// method threads its phases through.
//
// The paper's claims are phase-level cost arguments — RPM removes the
// final sort phase, the trie/list crossover moves with partition size,
// S³J pays replication in its partition phase — so the unit of
// observation here is the *span*: a named interval of one join with wall
// time, the delta of its disk's diskio.Stats (requests, pages, retries,
// cost units) and a record count, captured between Begin/Child and End.
// Spans nest: a join root span owns partition/sort/join/dup-removal phase
// spans, which own per-pair, heal and external-sort spans.
//
// Time lives here and nowhere else. Apart from that Stats delta and the
// record count a span holds no counts: the paper-specific totals
// (duplicates suppressed by the Reference Point Method, reference-point
// tests, replication copies per S³J level, sweep node touches) and
// distributions (partition fill, bucket fill) are series of package
// metrics, the per-join result is the method's Stats, and a per-join
// delta is Snapshot().Sub(before) — DESIGN.md §13.
//
// # Nil fast path
//
// Every method of Recorder and Span is safe on a nil receiver and
// returns immediately, so instrumentation sites call unconditionally and
// an untraced join pays only a pointer test per call site — the ≤2%
// overhead budget asserted by TestOverheadBudget/trace at the repository
// root. A nil *Recorder in a Config therefore means "no observability"
// at no cost.
//
// # Concurrency
//
// A Recorder is safe for concurrent use: parallel PBSM workers open and
// close spans under the recorder's own mutex. A single
// Span, however, belongs to the goroutine that created it (Child is safe
// to call concurrently on a shared parent; AddRecords/SetAttr/End are
// not). A Recorder observes one disk at a time via SetIOSource — attach
// one recorder per concurrently-running join.
package trace

import (
	"sync"
	"time"

	"spatialjoin/internal/diskio"
)

// Attr is one key/value annotation on a span. Val carries numeric
// values; Str carries string values (file names); exactly one is used.
type Attr struct {
	Key string
	Val int64
	Str string
}

// SpanData is one finished span as stored by the recorder.
type SpanData struct {
	ID      int64
	Parent  int64 // 0 for root spans
	Name    string
	Start   time.Duration // offset from the recorder epoch
	Dur     time.Duration
	IO      diskio.Stats // the disk's counters consumed while the span was open
	Records int64
	Attrs   []Attr
	// Instant marks a zero-duration event (a retry, an injected fault)
	// rather than a measured interval.
	Instant bool
}

// End returns the span's end offset from the recorder epoch.
func (s *SpanData) End() time.Duration { return s.Start + s.Dur }

// Recorder collects the spans and instant events of one traced
// workload. The zero value is not usable; call New. All methods are safe
// on a nil receiver (no-ops) and safe for concurrent use otherwise.
type Recorder struct {
	mu     sync.Mutex
	epoch  time.Time           // immutable after New
	ioFn   func() diskio.Stats // guarded by mu
	spans  []SpanData          // guarded by mu
	nextID int64               // guarded by mu
}

// New returns an empty Recorder whose epoch is now.
func New() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// SetIOSource installs the snapshot function spans use to attribute I/O
// deltas: the Stats method of the join's disk. Passing nil detaches it;
// spans then record zero I/O.
func (r *Recorder) SetIOSource(fn func() diskio.Stats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ioFn = fn
	r.mu.Unlock()
}

func (r *Recorder) ioNow() diskio.Stats {
	r.mu.Lock()
	fn := r.ioFn
	r.mu.Unlock()
	if fn == nil {
		return diskio.Stats{}
	}
	return fn()
}

// Begin opens a root span. On a nil recorder it returns a nil span, on
// which every method is a free no-op.
func (r *Recorder) Begin(name string) *Span {
	if r == nil {
		return nil
	}
	return r.open(name, 0)
}

func (r *Recorder) open(name string, parent int64) *Span {
	io0 := r.ioNow()
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	start := time.Since(r.epoch)
	r.mu.Unlock()
	return &Span{r: r, id: id, parent: parent, name: name, start: start, io0: io0}
}

// IOEvent records an instant event attributed to the storage layer: a
// request retry after a transient fault, an injected latency spike, a
// torn write or bit flip. It implements the diskio.Tracer interface so a
// *Recorder can be attached to a Disk directly. Events are stored as
// zero-duration root spans; their tallies are the registry's
// diskio.retries and diskio.faults.injected.
func (r *Recorder) IOEvent(kind, file string) {
	r.Instant(kind, Attr{Key: "file", Str: file})
}

// Instant records a zero-duration marker event with optional attributes
// — the trace-visible footprint of a one-off occurrence that is not an
// interval, such as a join aborted by cancellation (name "cancel", attr
// "phase"). Events are stored as instant root spans.
func (r *Recorder) Instant(name string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nextID++
	r.spans = append(r.spans, SpanData{
		ID:      r.nextID,
		Name:    name,
		Start:   time.Since(r.epoch),
		Instant: true,
		Attrs:   attrs,
	})
	r.mu.Unlock()
}

// Spans returns a copy of all finished spans in completion order.
func (r *Recorder) Spans() []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanData, len(r.spans))
	copy(out, r.spans)
	return out
}

// Span is an open interval of a traced workload. A nil *Span is a valid
// no-op handle; all methods check for it.
type Span struct {
	r       *Recorder
	id      int64
	parent  int64
	name    string
	start   time.Duration
	io0     diskio.Stats
	records int64
	attrs   []Attr
}

// Child opens a sub-span. Safe to call concurrently on a shared parent.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.r.open(name, s.id)
}

// AddRecords adds to the span's processed-record count.
func (s *Span) AddRecords(n int64) {
	if s == nil {
		return
	}
	s.records += n
}

// SetAttr annotates the span with a numeric attribute.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
}

// End closes the span, capturing its duration and I/O delta. Calling End
// more than once records the span more than once, so outside this package
// and phase End is called only as "defer sp.End()" on the line after the
// span opens (sjlint's spanend).
func (s *Span) End() {
	if s == nil {
		return
	}
	io1 := s.r.ioNow()
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, SpanData{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		Start:   s.start,
		Dur:     time.Since(s.r.epoch) - s.start,
		IO:      io1.Sub(s.io0),
		Records: s.records,
		Attrs:   s.attrs,
	})
	s.r.mu.Unlock()
}
