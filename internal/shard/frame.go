// Package shard executes a PBSM spatial join across multiple OS
// processes, each a fault domain of its own: a shard is a subset of the
// top-level partition pairs, executed by a worker process with its own
// simulated disk and temp-file registry. The coordinator plans the grid
// once, assigns partitions to shards by the pair costs of package
// iocost, ships each shard its input slices over a CRC-checked frame
// protocol (a spawned worker's stdin/stdout, or a TCP connection to a
// resident one), supervises workers with a heartbeat watchdog, and
// merges the returned result streams back into the EXACT emission order
// of a single-process run.
//
// Fault model (DESIGN.md §12): a worker that is killed, crashes, stalls
// or corrupts its frame stream is restarted with capped exponential
// backoff; its unsealed partitions are shipped again from the slices the
// coordinator scattered once (the heal-by-re-derivation of the
// in-process join, lifted to shard granularity) and re-executed, while partitions whose
// results were already sealed are never re-run — the Reference Point
// Method makes every partition pair's output globally duplicate-free,
// so sealed-exactly-once is all determinism needs. A shard that keeps
// failing past its restart budget is absorbed: the coordinator runs its
// remaining partitions in-process and the join degrades gracefully
// instead of failing.
package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// The frame wire format, shared by both directions of the pipe:
//
//	payload length  uint32 LE
//	frame type      uint8
//	CRC-32C         uint32 LE  (over the type byte followed by the payload)
//	payload         length bytes
//
// The CRC is Castagnoli, the same polynomial the recfile layer uses for
// on-disk frames: a pipe is as capable of tearing mid-write (a killed
// worker) as a disk is, and the coordinator must detect a torn or
// corrupt frame rather than decode garbage.
const (
	frameHeaderSize = 9
	// maxFramePayload bounds a single frame; a length beyond it means a
	// corrupt header, not a huge payload.
	maxFramePayload = 16 << 20
)

// FrameType tags a protocol frame.
type FrameType uint8

// Frame types. Coordinator→worker: job, part, go. Worker→coordinator:
// pairs, seal, beat, done, fail.
const (
	FrameJob   FrameType = 1 // JSON JobSpec
	FramePart  FrameType = 2 // one chunk of a partition's records
	FrameGo    FrameType = 3 // end of input; start joining
	FramePairs FrameType = 4 // result pairs of one partition
	FrameSeal  FrameType = 5 // partition complete; result count cross-check
	FrameBeat  FrameType = 6 // heartbeat
	FrameDone  FrameType = 7 // JSON WorkerReport; clean shutdown
	FrameFail  FrameType = 8 // JSON workerFailure; structured abort
	// FramePing is the pool's pre-lease health check: a resident worker
	// answers with a beat before any job is committed to the link.
	FramePing FrameType = 9
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ProtocolError reports a violation of the frame protocol: a corrupt
// header, a checksum mismatch, a truncated stream, an out-of-order or
// malformed frame. It is retryable at shard granularity — the
// coordinator kills the worker and re-runs its unsealed work.
type ProtocolError struct {
	Detail string
}

func (e *ProtocolError) Error() string { return "shard protocol: " + e.Detail }

// protoErrf builds a ProtocolError.
func protoErrf(format string, args ...any) error {
	return &ProtocolError{Detail: fmt.Sprintf(format, args...)}
}

// FrameWriter writes frames to one side of the pipe. It is safe for
// concurrent use: the worker's heartbeat goroutine and its result
// stream share one writer. Every frame is flushed before Write returns
// — a seal frame sitting in a buffer when the process is killed would
// turn into a torn stream on the coordinator side.
type FrameWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

// NewFrameWriter wraps w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriterSize(w, 64<<10)}
}

// Write emits one frame.
func (fw *FrameWriter) Write(t FrameType, payload []byte) error {
	if len(payload) > maxFramePayload {
		return protoErrf("frame payload %d bytes exceeds limit %d", len(payload), maxFramePayload)
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	hdr[4] = byte(t)
	crc := crc32.Update(0, crcTable, hdr[4:5])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[5:], crc)
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := fw.w.Write(payload); err != nil {
		return err
	}
	return fw.w.Flush()
}

// FrameReader reads frames from one side of the pipe.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Next reads and verifies one frame. It returns io.EOF at a clean
// end of stream (between frames); a stream ending inside a frame is a
// ProtocolError. The payload is only valid until the next call.
func (fr *FrameReader) Next() (FrameType, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, protoErrf("reading frame header: %v", err)
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		return 0, nil, protoErrf("truncated frame header: %v", err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	t := FrameType(hdr[4])
	want := binary.LittleEndian.Uint32(hdr[5:])
	if n > maxFramePayload {
		return 0, nil, protoErrf("frame length %d exceeds limit %d (corrupt header)", n, maxFramePayload)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return 0, nil, protoErrf("truncated frame payload (%d bytes): %v", n, err)
	}
	crc := crc32.Update(0, crcTable, hdr[4:5])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != want {
		return 0, nil, protoErrf("frame checksum mismatch (type %d, %d bytes)", t, n)
	}
	return t, payload, nil
}
