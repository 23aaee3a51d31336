// Package diskio simulates the secondary-storage model of §2 of the
// paper. Data is transferred between main memory and disk in pages of
// fixed size; a request for n contiguous pages costs PT + n
// page-transfer units, where PT is the ratio of positioning time to
// transfer time. Reading the join inputs and writing the final output are
// free of charge in the paper's model, so only intermediate files
// (partitions, level-record runs, sort runs) are created on a Disk.
//
// Files are held in memory; the simulation is about *accounting*, not
// persistence. Every read and write request is charged to the Disk's
// counters, and the accumulated cost converts to simulated seconds via
// the configured page-transfer time.
//
// A file's bytes live in fixed-size extents (extentSize), so appending
// never re-copies what is already written: the model says a byte moves
// once per request, and the simulation moves it once too. Neither the
// Writer nor the Reader holds a buffer: a write stages its bytes in the
// file's extents and a read copies straight out of them, so the width of
// a request costs no memory.
//
// Cost accounting and the file directory are guarded by a mutex, so
// multiple goroutines may read distinct files concurrently (the parallel
// join phase of PBSM relies on this). Concurrent writers to the SAME
// file are not supported.
package diskio

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Default model parameters. PT=20 with a 0.5 ms page-transfer time models
// a 10 ms average positioning time, in the ballpark of the 2 GB Seagate
// disk of the paper's testbed.
const (
	DefaultPageSize = 8192
	DefaultPT       = 20.0
	DefaultTransfer = 500 * time.Microsecond
)

// Disk is a simulated disk device. The zero value is not usable; call
// NewDisk.
type Disk struct {
	pageSize int
	pt       float64
	transfer time.Duration

	mu      sync.Mutex
	stats   Stats
	files   map[string]*File
	seq     int
	fp      *FaultPolicy
	tr      Tracer
	cancel  func() error
	latency time.Duration
	backoff *Backoff

	// met holds the live-metrics handles installed by SetMetrics, read
	// on every request with one atomic load so the disabled mode costs a
	// pointer test (see metrics.go).
	met atomic.Pointer[diskMetrics]
}

// Tracer receives rare storage-layer events: request retries after
// transient faults, injected latency spikes, torn writes and bit flips.
// Only exceptional events are reported — the per-request hot path stays
// untraced — so attaching a tracer costs nothing on a healthy disk.
// Implementations must be safe for concurrent use; *trace.Recorder
// satisfies the interface.
type Tracer interface {
	IOEvent(kind, file string)
}

// Stats aggregates the I/O activity charged to a Disk.
type Stats struct {
	ReadRequests  int64   // positioned read requests
	WriteRequests int64   // positioned write requests
	PagesRead     int64   // total pages transferred in
	PagesWritten  int64   // total pages transferred out
	CostUnits     float64 // sum of PT + n over all requests
	Retries       int64   // request retries after transient faults (recfile layer)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.ReadRequests += other.ReadRequests
	s.WriteRequests += other.WriteRequests
	s.PagesRead += other.PagesRead
	s.PagesWritten += other.PagesWritten
	s.CostUnits += other.CostUnits
	s.Retries += other.Retries
}

// Sub returns s minus other, useful for per-phase deltas.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		ReadRequests:  s.ReadRequests - other.ReadRequests,
		WriteRequests: s.WriteRequests - other.WriteRequests,
		PagesRead:     s.PagesRead - other.PagesRead,
		PagesWritten:  s.PagesWritten - other.PagesWritten,
		CostUnits:     s.CostUnits - other.CostUnits,
		Retries:       s.Retries - other.Retries,
	}
}

// NewDisk creates a Disk with the given page size in bytes, positioning
// ratio pt, and per-page transfer time. Non-positive arguments select the
// package defaults.
func NewDisk(pageSize int, pt float64, transfer time.Duration) *Disk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if pt <= 0 {
		pt = DefaultPT
	}
	if transfer <= 0 {
		transfer = DefaultTransfer
	}
	return &Disk{
		pageSize: pageSize,
		pt:       pt,
		transfer: transfer,
		files:    make(map[string]*File),
	}
}

// PageSize returns the page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// SetLatency turns the accounting-only cost model into real wall-clock
// latency: every subsequent request sleeps perUnit for each cost unit it
// is charged (PT + pages transferred). Zero (the default) disables the
// sleep and restores pure accounting.
//
// The sleep happens outside the Disk mutex, so requests from different
// goroutines overlap — exactly the behavior of a device that can serve
// queued requests while callers wait. The metrics endpoint smoke test
// relies on this to stretch a join long enough to scrape mid-flight;
// everything else (the paper experiments, the repository benchmark)
// leaves the latency at zero so the simulation stays instantaneous.
func (d *Disk) SetLatency(perUnit time.Duration) {
	d.mu.Lock()
	d.latency = perUnit
	d.mu.Unlock()
}

// SetFaultPolicy installs (or, with nil, removes) a fault-injection
// policy consulted on every subsequent read and write request.
func (d *Disk) SetFaultPolicy(fp *FaultPolicy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fp = fp
}

// FaultPolicy returns the installed policy, or nil.
func (d *Disk) FaultPolicy() *FaultPolicy {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fp
}

// SetTracer installs (or, with nil, removes) an event tracer notified
// of retries and injected faults on this disk.
func (d *Disk) SetTracer(tr Tracer) {
	d.mu.Lock()
	d.tr = tr
	d.mu.Unlock()
}

func (d *Disk) tracer() Tracer {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tr
}

// SetCancel installs (or, with nil, removes) a cancellation hook
// consulted before every read and write request. When the hook returns a
// non-nil error the request fails with it instead of touching the device
// — so a canceled join stops issuing I/O within one request, the
// "bounded number of page I/Os" half of the cancellation guarantee.
// Create, Remove and Open never consult the hook: cleanup (sweeping temp
// files after an abort) must always succeed.
func (d *Disk) SetCancel(fn func() error) {
	d.mu.Lock()
	d.cancel = fn
	d.mu.Unlock()
}

// checkCancel runs the installed cancellation hook, if any.
func (d *Disk) checkCancel() error {
	d.mu.Lock()
	fn := d.cancel
	d.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// emitEvent forwards an event to the tracer, if any, and counts
// injected faults on the live registry (retries are metered separately
// in NoteRetry). Called without d.mu held so tracer implementations
// may take their own locks freely.
func (d *Disk) emitEvent(kind, file string) {
	if kind != "retry" {
		d.meterFault(kind)
	}
	if tr := d.tracer(); tr != nil {
		tr.IOEvent(kind, file)
	}
}

// NoteRetry records one retry of a request against the named file after
// a transient fault. The record layers (package recfile) call it so that
// retry counts surface in the per-join Stats deltas and, when a Tracer
// is attached, as retry events in the trace.
func (d *Disk) NoteRetry(file string) {
	d.mu.Lock()
	d.stats.Retries++
	d.mu.Unlock()
	d.meterRetry()
	d.emitEvent("retry", file)
}

// SetBackoff installs (or, with nil, removes) the retry backoff policy
// the record layers consult between attempts via RetrySleep. The
// default nil policy preserves the historical behavior: retries happen
// immediately, with no pause.
func (d *Disk) SetBackoff(b *Backoff) {
	d.mu.Lock()
	d.backoff = b
	d.mu.Unlock()
}

// Backoff returns the installed retry policy, or nil.
func (d *Disk) Backoff() *Backoff {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.backoff
}

// RetrySleep pauses before retry attempt (1-based) of a request against
// the named file, according to the installed backoff policy. The sleep
// is cancellation-aware: it polls the disk's cancel hook (SetCancel)
// and returns its error early, so a canceled join does not serve out a
// backoff it will never use. With no policy installed it only polls the
// hook once — the legacy immediate retry.
func (d *Disk) RetrySleep(file string, attempt int) error {
	b := d.Backoff()
	if b == nil {
		return d.checkCancel()
	}
	return b.Sleep(file, attempt, d.checkCancel)
}

// PT returns the positioning-to-transfer ratio of the cost model.
func (d *Disk) PT() float64 { return d.pt }

// Stats returns a snapshot of the accumulated counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// CostTime converts a cost-unit count into simulated wall time.
func (d *Disk) CostTime(units float64) time.Duration {
	return time.Duration(units * float64(d.transfer))
}

// Create makes a new empty file. An empty name generates a unique one.
// Creating over an existing name truncates it.
func (d *Disk) Create(name string) *File {
	d.mu.Lock()
	defer d.mu.Unlock()
	if name == "" {
		d.seq++
		name = fmt.Sprintf("tmp-%d", d.seq)
	}
	f := &File{d: d, name: name}
	d.files[name] = f
	return f
}

// Remove deletes a file and releases its memory. Removing is free of
// charge (directory operations are outside the cost model).
func (d *Disk) Remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.files, name)
}

// NumFiles returns how many files currently exist on the disk. Tests
// use it to prove a finished join — successful, failed or canceled —
// left no orphan temp files behind.
func (d *Disk) NumFiles() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.files)
}

// FileNames returns the names of all files currently on the disk, in no
// particular order. Diagnostic companion to NumFiles.
func (d *Disk) FileNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	return names
}

// Open returns an existing file by name, or nil if absent.
func (d *Disk) Open(name string) *File {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.files[name]
}

// pages returns the number of pages needed for n bytes.
func (d *Disk) pages(n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64((n + d.pageSize - 1) / d.pageSize)
}

func (d *Disk) chargeRead(bytes int) {
	p := d.pages(bytes)
	if p == 0 {
		return
	}
	units := d.pt + float64(p)
	d.mu.Lock()
	d.stats.ReadRequests++
	d.stats.PagesRead += p
	d.stats.CostUnits += units
	lat := d.latency
	d.mu.Unlock()
	d.meterRead(p)
	sleepUnits(lat, units)
}

func (d *Disk) chargeWrite(bytes int) {
	p := d.pages(bytes)
	if p == 0 {
		return
	}
	units := d.pt + float64(p)
	d.mu.Lock()
	d.stats.WriteRequests++
	d.stats.PagesWritten += p
	d.stats.CostUnits += units
	lat := d.latency
	d.mu.Unlock()
	d.meterWrite(p)
	sleepUnits(lat, units)
}

// sleepUnits realizes a charged cost as wall-clock latency (SetLatency).
// Called with the Disk mutex released so concurrent requests overlap.
func sleepUnits(perUnit time.Duration, units float64) {
	if perUnit > 0 {
		time.Sleep(time.Duration(units * float64(perUnit)))
	}
}

// chargeLatencySpike bills an extra positioning, the cost of an injected
// latency fault (a seek gone long) against the named file.
func (d *Disk) chargeLatencySpike(file string) {
	d.mu.Lock()
	d.stats.CostUnits += d.pt
	lat := d.latency
	d.mu.Unlock()
	sleepUnits(lat, d.pt)
	d.emitEvent("latency-fault", file)
}

// File is a simulated on-disk file: a byte sequence plus cost accounting.
// Use NewWriter and NewReader for sequential access, or ReadAt for
// positioned reads (each ReadAt is one positioned request).
type File struct {
	d    *Disk
	name string
	// ext holds the contents: byte i lives in ext[i/extentSize][i%extentSize].
	// Every extent but the last is full and the last holds the rest. The
	// first size bytes are the file; past them lie the bytes an open
	// Writer has staged for its next request, which no reader sees.
	ext  [][]byte
	size int
}

// extentSize is the unit a File's contents are allocated in. Staging
// fills the tail extent and then starts a new one, so no byte already
// written is ever moved again.
const extentSize = 64 << 10

// stage appends p to the extents past everything already in them. The
// staged bytes are not part of the file until commit takes them.
func (f *File) stage(p []byte) {
	for len(p) > 0 {
		if len(f.ext) == 0 || len(f.ext[len(f.ext)-1]) == extentSize {
			f.ext = append(f.ext, nil)
		}
		tail := &f.ext[len(f.ext)-1]
		n := len(p)
		if room := extentSize - len(*tail); n > room {
			n = room
		}
		if need := len(*tail) + n; need > cap(*tail) {
			// The first extent is sized to what it holds and doubles; a
			// file that outgrew one extent gets whole ones.
			c := extentSize
			if len(f.ext) == 1 && need < extentSize/2 {
				c = max(2*cap(*tail), need)
			}
			grown := make([]byte, len(*tail), c)
			copy(grown, *tail)
			*tail = grown
		}
		*tail = append(*tail, p[:n]...)
		p = p[n:]
	}
}

// commit makes the first n staged bytes part of the file and drops the
// staged bytes past them.
func (f *File) commit(n int) {
	f.size += n
	keep := (f.size + extentSize - 1) / extentSize
	clear(f.ext[keep:])
	f.ext = f.ext[:keep]
	if keep > 0 {
		f.ext[keep-1] = f.ext[keep-1][:f.size-(keep-1)*extentSize]
	}
}

// copyAt copies file bytes starting at off into p, stopping at the end
// of p or of the file, and returns the number of bytes copied. off must
// lie in [0, f.size].
func (f *File) copyAt(p []byte, off int64) int {
	p = p[:min(int64(len(p)), int64(f.size)-off)]
	total := 0
	for i, o := int(off/extentSize), int(off%extentSize); len(p) > 0 && i < len(f.ext); i, o = i+1, 0 {
		n := copy(p, f.ext[i][o:])
		total += n
		p = p[n:]
	}
	return total
}

// Name returns the file's name on its Disk.
func (f *File) Name() string { return f.name }

// Disk returns the device the file lives on.
func (f *File) Disk() *Disk { return f.d }

// Len returns the file length in bytes.
func (f *File) Len() int { return f.size }

// Pages returns the file length in pages (rounded up).
func (f *File) Pages() int64 { return f.d.pages(f.size) }

// ErrNegativeOffset is returned by ReadAt for offsets below zero, which
// indicate a caller bug rather than an end-of-file condition.
var ErrNegativeOffset = errors.New("diskio: negative read offset")

// ReadAt copies len(p) bytes starting at off into p and charges one
// positioned read request. It follows the io.ReaderAt contract: a
// negative offset returns ErrNegativeOffset, an offset at or past end of
// file returns (0, io.EOF), and a read cut short by end of file returns
// the bytes copied together with io.EOF.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, ErrNegativeOffset
	}
	if off >= int64(f.size) {
		return 0, io.EOF
	}
	n := f.copyAt(p, off)
	f.d.chargeRead(n)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Bytes returns a copy of the contents for zero-cost inspection in tests.
func (f *File) Bytes() []byte {
	b := make([]byte, f.size)
	f.copyAt(b, 0)
	return b
}

// Writer appends sequentially to a File, charging one positioned write
// request per window of bufPages pages. It holds no buffer: Write stages
// the bytes in the file's tail extents, past the committed length, and
// the request that covers them commits them. Until then Len, Pages,
// ReadAt and every Reader see only committed bytes, so a wide window
// costs no memory beyond the file itself.
type Writer struct {
	f      *File
	window int // bytes per request
	n      int // bytes staged for the open request
}

// NewWriter returns a Writer whose requests are bufPages pages wide
// (minimum 1). Bytes an abandoned Writer left staged are dropped.
func (f *File) NewWriter(bufPages int) *Writer {
	if bufPages < 1 {
		bufPages = 1
	}
	f.commit(0)
	return &Writer{f: f, window: bufPages * f.d.pageSize}
}

// Write appends p, issuing a request whenever a window fills. It
// returns the number of bytes staged; on a transient fault the staged
// bytes stay staged and uncommitted, so calling Write again with the
// remaining slice (or Flush) retries the same device request.
func (w *Writer) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := min(len(p), w.window-w.n)
		w.f.stage(p[:n])
		w.n += n
		total += n
		p = p[n:]
		if w.n == w.window {
			if err := w.flush(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// flush issues the open request: one cancel check, one fault draw and
// one charge.
func (w *Writer) flush() error {
	if w.n == 0 {
		return nil
	}
	d := w.f.d
	if err := d.checkCancel(); err != nil {
		// The staged bytes stay, but a canceled join never retries: the
		// context error propagates out of the record layers.
		return err
	}
	keep, event := w.n, ""
	if fp := d.FaultPolicy(); fp != nil {
		act, arg := fp.onWrite(w.n)
		switch act {
		case writeTransient:
			// Nothing committed; the staged bytes wait for the retry.
			return &FaultError{Op: "write", File: w.f.name, Transient: true}
		case writeTorn:
			// Commit a prefix and report success — the silent partial
			// write the checksummed frame format exists to catch.
			keep, event = arg, "torn-write"
		case writeFlip:
			at := w.f.size + arg/8
			w.f.ext[at/extentSize][at%extentSize] ^= 1 << (arg % 8)
			event = "bit-flip"
		case writeLatency:
			d.chargeLatencySpike(w.f.name)
		}
	}
	w.f.commit(keep)
	d.chargeWrite(keep)
	w.n = 0
	if event != "" {
		d.emitEvent(event, w.f.name)
	}
	return nil
}

// Flush issues the open request, if any bytes are staged.
func (w *Writer) Flush() error { return w.flush() }

// Reader scans a File (or a byte range of it) sequentially, charging
// one positioned read request per window of bufPages pages. It holds no
// buffer: Read copies straight from the file's extents into the caller's
// slice, so a wide window costs no memory.
type Reader struct {
	f      *File
	window int64 // bytes per request
	lo, hi int64 // unread range in the file
	paid   int64 // end of the window charged so far
}

// NewReader returns a sequential Reader over the whole file.
func (f *File) NewReader(bufPages int) *Reader {
	return f.NewRangeReader(bufPages, 0, int64(f.size))
}

// NewRangeReader returns a sequential Reader over file bytes [lo, hi).
func (f *File) NewRangeReader(bufPages int, lo, hi int64) *Reader {
	if bufPages < 1 {
		bufPages = 1
	}
	if hi > int64(f.size) {
		hi = int64(f.size)
	}
	if lo > hi {
		lo = hi
	}
	return &Reader{f: f, window: int64(bufPages) * int64(f.d.pageSize), lo: lo, hi: hi, paid: lo}
}

// Read fills p with the next bytes of the range; it returns 0 at the
// end. A transient fault error leaves the unread range untouched, so the
// same Read can be retried.
func (r *Reader) Read(p []byte) (int, error) {
	total := 0
	for len(p) > 0 && r.lo < r.hi {
		if r.lo == r.paid {
			if err := r.request(); err != nil {
				return total, err
			}
		}
		n := r.f.copyAt(p[:min(int64(len(p)), r.paid-r.lo)], r.lo)
		r.lo += int64(n)
		total += n
		p = p[n:]
	}
	return total, nil
}

// ReadFull fills p entirely; ok is false at a clean end of range. A
// short read (range ends mid-record) also reports ok == false with a nil
// error — record framing above decides whether that is corruption.
func (r *Reader) ReadFull(p []byte) (bool, error) {
	n, err := r.Read(p)
	if err != nil {
		return false, err
	}
	return n == len(p), nil
}

// request issues the read of the next window: one cancel check, one
// fault draw and one charge.
func (r *Reader) request() error {
	d := r.f.d
	if err := d.checkCancel(); err != nil {
		return err
	}
	if fp := d.FaultPolicy(); fp != nil {
		switch fp.onRead() {
		case readTransient:
			return &FaultError{Op: "read", File: r.f.name, Transient: true}
		case readLatency:
			d.chargeLatencySpike(r.f.name)
		}
	}
	n := min(r.window, r.hi-r.lo)
	d.chargeRead(int(n))
	r.paid = r.lo + n
	return nil
}
