// Package recfile layers fixed-size record streams (KPEs, result Pairs,
// and the generic records of the external sort) on top of the simulated
// disk of package diskio. Partition files, level-record runs, sort runs and
// the temporary result files of the original PBSM duplicate-removal
// phase are all recfile streams.
//
// # Framed page format
//
// Records are not written raw: they are grouped into *frames* of a fixed
// record capacity, each protected by a CRC-32C checksum, so that any
// corruption the storage layer lets through (torn writes, bit flips)
// is detected at read time instead of silently producing a wrong join
// result. A frame is
//
//	+--------------+--------------+-----------+------------------+
//	| count uint32 | index uint32 | crc uint32| count × recSize  |
//	| (bit 31 =    | (position of | CRC-32C of| record payload   |
//	|  end-of-     |  frame in    | header[0:8]                  |
//	|  stream)     |  stream)     |  + payload|                  |
//	+--------------+--------------+-----------+------------------+
//
// All integers are little-endian. Every frame except the final one holds
// exactly recsPerFrame(recSize) records, so a record index maps to a
// byte offset arithmetically and range readers can start mid-file. Flush
// finalizes a stream by emitting a final frame (possibly empty) with the
// end-of-stream bit set; a reader that hits end of file without having
// seen that bit reports corruption — this is what catches a torn write
// that happens to tear at a frame boundary. The frame index, covered by
// the checksum, catches frame-aligned tears mid-file.
//
// # Fault handling
//
// Transient faults injected by the diskio layer are retried here, up to
// MaxRetries times per request; because diskio leaves a writer's staged
// bytes and a reader's position untouched on a transient fault, a retry
// re-issues the identical request. Retries are counted on the Disk's
// Stats so they surface in per-join results. Corruption (checksum mismatch, torn or
// misordered frames) is *not* retried: readers return a CorruptError and
// the layers above decide whether to heal (PBSM re-derives partition
// files) or fail cleanly.
package recfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
)

const (
	// frameHeaderSize is the per-frame overhead in bytes.
	frameHeaderSize = 12
	// targetFrameSize bounds the physical frame size in bytes.
	targetFrameSize = 4096
	// lastFlag marks the final frame of a stream in the count word.
	lastFlag = 1 << 31
	// MaxRetries bounds the deterministic retry loop for transient
	// faults. It must exceed the fault policy's burst cap so that a
	// retried request always eventually succeeds.
	MaxRetries = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// recsPerFrame returns the record capacity of a frame for recSize-byte
// records (at least 1).
func recsPerFrame(recSize int) int {
	n := (targetFrameSize - frameHeaderSize) / recSize
	if n < 1 {
		n = 1
	}
	return n
}

// frameBytes returns the physical size of a full frame.
func frameBytes(recSize int) int {
	return frameHeaderSize + recsPerFrame(recSize)*recSize
}

// NumRecs returns the number of recSize-byte records stored in f,
// derived from the file length and the frame arithmetic. It charges no
// I/O; if the file is corrupt the count is a best-effort estimate and
// the corruption surfaces when the records are read.
func NumRecs(f *diskio.File, recSize int) int64 {
	fb, per := int64(frameBytes(recSize)), int64(recsPerFrame(recSize))
	l := int64(f.Len())
	n := (l / fb) * per
	if rem := l % fb; rem >= frameHeaderSize {
		n += (rem - frameHeaderSize) / int64(recSize)
	}
	return n
}

// VerifyEmpty checks that a file whose length-derived record count is
// zero really is an intact empty stream: either never written (zero
// length) or exactly one finalized end-of-stream frame. A torn write can
// truncate a stream below one frame header, which makes NumRecs report
// zero for a file that held records — so callers that skip apparently
// empty files MUST verify before skipping, or corruption silently drops
// the file's records instead of surfacing as a CorruptError. Files with
// a non-zero record count are vacuously fine here (their corruption, if
// any, surfaces when they are read) and cost no I/O.
func VerifyEmpty(f *diskio.File, recSize, bufPages int) error {
	if f.Len() == 0 || NumRecs(f, recSize) > 0 {
		return nil
	}
	r := NewRecReader(f, recSize, bufPages)
	buf := make([]byte, recSize)
	ok, err := r.Next(buf)
	if err != nil {
		return err
	}
	if ok {
		return &CorruptError{File: f.Name(), Detail: "records present in a stream whose length reports none"}
	}
	return nil
}

// VerifyEmptyKPEs is VerifyEmpty for KPE streams.
func VerifyEmptyKPEs(f *diskio.File, bufPages int) error {
	return VerifyEmpty(f, geom.KPESize, bufPages)
}

// CorruptError reports that a stream failed integrity verification:
// checksum mismatch, torn frame, or misordered frames.
type CorruptError struct {
	File   string
	Frame  int64 // frame index at which corruption was detected
	Detail string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("recfile: %s frame %d: %s", e.File, e.Frame, e.Detail)
}

// FileName reports the corrupt file (used by joinerr.Wrap).
func (e *CorruptError) FileName() string { return e.File }

// IsCorrupt reports whether err is (or wraps) a CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// RecWriter appends fixed-size records to a disk file in checksummed
// frames. Flush finalizes the stream; writing after Flush is an error.
type RecWriter struct {
	f        *diskio.File
	w        *diskio.Writer
	rec      int
	perFrame int
	frame    []byte
	n        int    // records in the current frame
	idx      uint32 // index of the next frame to emit
	count    int64  // records written in total
	finished bool
}

// NewRecWriter creates a framed writer over f for recSize-byte records
// that writes in requests of bufPages pages.
func NewRecWriter(f *diskio.File, recSize, bufPages int) *RecWriter {
	return &RecWriter{
		f:        f,
		w:        f.NewWriter(bufPages),
		rec:      recSize,
		perFrame: recsPerFrame(recSize),
		frame:    make([]byte, frameBytes(recSize)),
	}
}

// Write appends one record, which must be exactly the configured size.
func (w *RecWriter) Write(rec []byte) error {
	buf, err := w.Grab()
	if err != nil {
		return err
	}
	copy(buf, rec)
	return w.Commit()
}

// Grab returns the frame slot for the next record, for callers that
// encode in place instead of through an intermediate buffer. The slot is
// only valid until Commit; every Grab must be paired with one Commit.
func (w *RecWriter) Grab() ([]byte, error) {
	if w.finished {
		return nil, fmt.Errorf("recfile: write to finalized stream %s", w.f.Name())
	}
	off := frameHeaderSize + w.n*w.rec
	return w.frame[off : off+w.rec : off+w.rec], nil
}

// Commit seals the record most recently grabbed with Grab.
func (w *RecWriter) Commit() error {
	w.n++
	w.count++
	if w.n == w.perFrame {
		return w.emit(false)
	}
	return nil
}

// Count returns the number of records written so far.
func (w *RecWriter) Count() int64 { return w.count }

// emit seals the current frame (checksum, index, flags) and writes it
// through the buffered writer with bounded retry on transient faults.
func (w *RecWriter) emit(last bool) error {
	if w.n == 0 && !last {
		return nil
	}
	count := uint32(w.n)
	if last {
		count |= lastFlag
	}
	binary.LittleEndian.PutUint32(w.frame[0:], count)
	binary.LittleEndian.PutUint32(w.frame[4:], w.idx)
	crc := crc32.Update(0, crcTable, w.frame[0:8])
	crc = crc32.Update(crc, crcTable, w.frame[frameHeaderSize:frameHeaderSize+w.n*w.rec])
	binary.LittleEndian.PutUint32(w.frame[8:], crc)

	p := w.frame[:frameHeaderSize+w.n*w.rec]
	for retries := 0; ; {
		n, err := w.w.Write(p)
		p = p[n:]
		if err == nil {
			break
		}
		if n > 0 {
			// Progress means a *different* device request is now failing;
			// the retry budget is per request. Only consecutive
			// zero-progress failures repeat one request, and the policy's
			// burst cap bounds those below MaxRetries.
			retries = 0
		}
		if !diskio.IsTransient(err) || retries >= MaxRetries {
			return err
		}
		retries++
		w.f.Disk().NoteRetry(w.f.Name())
		if err := w.f.Disk().RetrySleep(w.f.Name(), retries); err != nil {
			return err
		}
	}
	w.idx++
	w.n = 0
	return nil
}

// Flush finalizes the stream — emits the final frame with the
// end-of-stream bit (possibly empty) — and forces all buffered bytes to
// disk. It is idempotent.
func (w *RecWriter) Flush() error {
	if w.finished {
		return nil
	}
	if err := w.emit(true); err != nil {
		return err
	}
	w.finished = true
	for retries := 0; ; {
		err := w.w.Flush()
		if err == nil {
			return nil
		}
		if !diskio.IsTransient(err) || retries >= MaxRetries {
			return err
		}
		retries++
		w.f.Disk().NoteRetry(w.f.Name())
		if err := w.f.Disk().RetrySleep(w.f.Name(), retries); err != nil {
			return err
		}
	}
}

// RecReader scans fixed-size records from a framed disk file, verifying
// every frame's checksum and sequencing. The zero value is not usable.
type RecReader struct {
	f         *diskio.File
	r         *diskio.Reader
	rec       int
	perFrame  int
	payload   []byte
	n, pos    int    // records in / consumed from the current frame
	idx       uint32 // next expected frame index
	sawLast   bool
	rangeMode bool
	remaining int64 // records left to serve in range mode
	skip      int   // records to skip in the first loaded frame
	served    int64
	hdr       [frameHeaderSize]byte
}

// NewRecReader creates a reader over the whole of f.
func NewRecReader(f *diskio.File, recSize, bufPages int) *RecReader {
	return &RecReader{
		f:        f,
		r:        f.NewReader(bufPages),
		rec:      recSize,
		perFrame: recsPerFrame(recSize),
		payload:  make([]byte, recsPerFrame(recSize)*recSize),
	}
}

// NewRecRangeReader creates a reader over records [lo, hi) of f. The
// range addresses records by index; the reader seeks to the containing
// frame and verifies checksums from there. Its byte range ends with the
// frame that holds record hi-1, so no request, however wide its window,
// charges the pages of the records past the range.
func NewRecRangeReader(f *diskio.File, recSize, bufPages int, lo, hi int64) *RecReader {
	per, fb := int64(recsPerFrame(recSize)), int64(frameBytes(recSize))
	startFrame := lo / per
	return &RecReader{
		f:         f,
		r:         f.NewRangeReader(bufPages, startFrame*fb, (hi+per-1)/per*fb),
		rec:       recSize,
		perFrame:  int(per),
		payload:   make([]byte, int(per)*recSize),
		idx:       uint32(startFrame),
		rangeMode: true,
		remaining: hi - lo,
		skip:      int(lo % per),
	}
}

// corrupt builds a CorruptError at the reader's current frame.
func (r *RecReader) corrupt(detail string) error {
	return &CorruptError{File: r.f.Name(), Frame: int64(r.idx), Detail: detail}
}

// readRetry reads into p with bounded retry on transient faults. It
// returns the bytes read; fewer than len(p) means the range ended.
func (r *RecReader) readRetry(p []byte) (int, error) {
	got := 0
	for retries := 0; ; {
		n, err := r.r.Read(p[got:])
		got += n
		if err == nil {
			return got, nil
		}
		if n > 0 {
			retries = 0 // progress: the failing request is a new one
		}
		if !diskio.IsTransient(err) || retries >= MaxRetries {
			return got, err
		}
		retries++
		r.f.Disk().NoteRetry(r.f.Name())
		if err := r.f.Disk().RetrySleep(r.f.Name(), retries); err != nil {
			return got, err
		}
	}
}

// loadFrame reads and verifies the next frame. ok is false at a clean
// end of stream.
func (r *RecReader) loadFrame() (bool, error) {
	if r.sawLast || (r.rangeMode && r.remaining == 0) {
		return false, nil
	}
	n, err := r.readRetry(r.hdr[:])
	if err != nil {
		return false, err
	}
	if n == 0 {
		if r.rangeMode {
			// loadFrame is never entered with remaining == 0, and range
			// callers only request records that were written — running
			// out of file mid-range is a torn tail, not a clean end. A
			// clean return here would silently shorten a sort run into a
			// checksum-valid but incomplete merge output.
			return false, r.corrupt("stream ends before requested record range")
		}
		if r.idx == 0 && r.f.Len() == 0 {
			return false, nil // never-written file: empty stream
		}
		return false, r.corrupt("stream ends without end-of-stream frame (torn tail)")
	}
	if n < frameHeaderSize {
		return false, r.corrupt("torn frame header")
	}
	countWord := binary.LittleEndian.Uint32(r.hdr[0:])
	frameIdx := binary.LittleEndian.Uint32(r.hdr[4:])
	wantCRC := binary.LittleEndian.Uint32(r.hdr[8:])
	last := countWord&lastFlag != 0
	count := int(countWord &^ lastFlag)
	switch {
	case count > r.perFrame:
		return false, r.corrupt(fmt.Sprintf("frame record count %d exceeds capacity %d", count, r.perFrame))
	case count == 0 && !last:
		return false, r.corrupt("empty non-final frame")
	case frameIdx != r.idx:
		return false, r.corrupt(fmt.Sprintf("frame index %d, expected %d (misordered or torn stream)", frameIdx, r.idx))
	}
	p := r.payload[:count*r.rec]
	n, err = r.readRetry(p)
	if err != nil {
		return false, err
	}
	if n < len(p) {
		return false, r.corrupt("torn frame payload")
	}
	crc := crc32.Update(0, crcTable, r.hdr[0:8])
	crc = crc32.Update(crc, crcTable, p)
	if crc != wantCRC {
		return false, r.corrupt("checksum mismatch")
	}
	if r.skip > count {
		return false, r.corrupt("record range starts past frame content")
	}
	r.n, r.pos = count, r.skip
	r.skip = 0
	r.idx++
	r.sawLast = last
	if r.pos == r.n && !last {
		// Fully-skipped frame (range starts in a later frame region —
		// cannot happen with frame-aligned seeks, but stay safe).
		return r.loadFrame()
	}
	return r.pos < r.n || !r.rangeMode, nil
}

// Next copies the next record into dst; ok is false at the end of the
// stream or range. After a non-nil error the reader is exhausted.
func (r *RecReader) Next(dst []byte) (bool, error) {
	p, ok, err := r.NextRef()
	if !ok || err != nil {
		return false, err
	}
	copy(dst, p)
	return true, nil
}

// NextRef returns a view of the next record, valid only until the
// following Next/NextRef call; ok is false at the end of the stream or
// range. After a non-nil error the reader is exhausted.
func (r *RecReader) NextRef() ([]byte, bool, error) {
	if r.rangeMode && r.remaining == 0 {
		return nil, false, nil
	}
	for r.pos >= r.n {
		ok, err := r.loadFrame()
		if err != nil || !ok {
			return nil, false, err
		}
		if r.pos >= r.n { // empty final frame
			return nil, false, nil
		}
	}
	p := r.payload[r.pos*r.rec : (r.pos+1)*r.rec : (r.pos+1)*r.rec]
	r.pos++
	r.served++
	if r.rangeMode {
		r.remaining--
	}
	return p, true, nil
}

// Left returns the number of unread records: exact for range readers,
// length-derived for whole-file readers.
func (r *RecReader) Left() int64 {
	if r.rangeMode {
		return r.remaining
	}
	return NumRecs(r.f, r.rec) - r.served
}

// KPEWriter appends KPE records to a disk file through checksummed
// frames.
type KPEWriter struct {
	w *RecWriter
}

// NewKPEWriter creates a writer over f that writes in requests of
// bufPages pages.
func NewKPEWriter(f *diskio.File, bufPages int) *KPEWriter {
	return &KPEWriter{w: NewRecWriter(f, geom.KPESize, bufPages)}
}

// Write appends one KPE, encoding directly into the frame.
func (w *KPEWriter) Write(k geom.KPE) error {
	buf, err := w.w.Grab()
	if err != nil {
		return err
	}
	geom.EncodeKPE(buf, k)
	return w.w.Commit()
}

// Count returns the number of records written so far.
func (w *KPEWriter) Count() int { return int(w.w.Count()) }

// Flush finalizes the stream and forces buffered records to disk.
func (w *KPEWriter) Flush() error { return w.w.Flush() }

// KPEReader scans KPE records sequentially from a disk file.
type KPEReader struct {
	r *RecReader
}

// NewKPEReader creates a reader over the whole of f with a buffer of
// bufPages pages.
func NewKPEReader(f *diskio.File, bufPages int) *KPEReader {
	return &KPEReader{r: NewRecReader(f, geom.KPESize, bufPages)}
}

// NewKPERangeReader creates a reader over records [lo, hi) of f.
func NewKPERangeReader(f *diskio.File, bufPages int, lo, hi int64) *KPEReader {
	return &KPEReader{r: NewRecRangeReader(f, geom.KPESize, bufPages, lo, hi)}
}

// Next returns the next record; ok is false at end of stream or on
// error.
func (r *KPEReader) Next() (geom.KPE, bool, error) {
	p, ok, err := r.r.NextRef()
	if !ok || err != nil {
		return geom.KPE{}, false, err
	}
	return geom.DecodeKPE(p), true, nil
}

// RecordsLeft returns the number of unread records.
func (r *KPEReader) RecordsLeft() int64 { return r.r.Left() }

// NumKPEs returns the number of KPE records stored in f.
func NumKPEs(f *diskio.File) int64 { return NumRecs(f, geom.KPESize) }

// ReadAllKPEs loads every record of f into memory with one buffered
// scan, filling dst from dst[:0] — a caller that loads file after file
// hands its last slice back and allocates only when a file outgrows it;
// nil asks for a fresh slice. The caller is responsible for charging the
// load against its memory budget; the I/O itself is charged to the disk
// as usual.
func ReadAllKPEs(dst []geom.KPE, f *diskio.File, bufPages int) ([]geom.KPE, error) {
	out := dst[:0]
	if n := NumKPEs(f); int64(cap(out)) < n {
		out = make([]geom.KPE, 0, n)
	}
	r := NewKPEReader(f, bufPages)
	for {
		k, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, k)
	}
}

// PairWriter appends result Pair records to a disk file.
type PairWriter struct {
	w *RecWriter
}

// NewPairWriter creates a writer over f that writes in requests of
// bufPages pages.
func NewPairWriter(f *diskio.File, bufPages int) *PairWriter {
	return &PairWriter{w: NewRecWriter(f, geom.PairSize, bufPages)}
}

// Write appends one pair, encoding directly into the frame.
func (w *PairWriter) Write(p geom.Pair) error {
	buf, err := w.w.Grab()
	if err != nil {
		return err
	}
	geom.EncodePair(buf, p)
	return w.w.Commit()
}

// Count returns the number of records written so far.
func (w *PairWriter) Count() int { return int(w.w.Count()) }

// Flush finalizes the stream and forces buffered records to disk.
func (w *PairWriter) Flush() error { return w.w.Flush() }

// PairReader scans Pair records sequentially from a disk file.
type PairReader struct {
	r *RecReader
}

// NewPairReader creates a reader over the whole of f.
func NewPairReader(f *diskio.File, bufPages int) *PairReader {
	return &PairReader{r: NewRecReader(f, geom.PairSize, bufPages)}
}

// Next returns the next pair; ok is false at end of stream or on error.
func (r *PairReader) Next() (geom.Pair, bool, error) {
	p, ok, err := r.r.NextRef()
	if !ok || err != nil {
		return geom.Pair{}, false, err
	}
	return geom.DecodePair(p), true, nil
}
