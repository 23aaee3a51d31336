package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	payloads := map[FrameType][]byte{
		FrameJob:   []byte(`{"shard":3}`),
		FrameGo:    nil,
		FramePairs: {1, 2, 3, 4, 5},
		FrameBeat:  {},
	}
	order := []FrameType{FrameJob, FrameGo, FramePairs, FrameBeat}
	for _, ty := range order {
		if err := fw.Write(ty, payloads[ty]); err != nil {
			t.Fatalf("Write(%d): %v", ty, err)
		}
	}
	fr := NewFrameReader(&buf)
	for _, ty := range order {
		got, payload, err := fr.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if got != ty {
			t.Fatalf("frame type %d, want %d", got, ty)
		}
		if !bytes.Equal(payload, payloads[ty]) {
			t.Fatalf("frame %d payload %v, want %v", ty, payload, payloads[ty])
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("at end: err %v, want io.EOF", err)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.Write(FramePairs, []byte("hello frame")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload bit.
	raw[frameHeaderSize+3] ^= 0x40
	fr := NewFrameReader(bytes.NewReader(raw))
	_, _, err := fr.Next()
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("corrupted frame: err %v, want ProtocolError", err)
	}
}

func TestFrameTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.Write(FrameSeal, encodeSeal(7, 42)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		fr := NewFrameReader(bytes.NewReader(raw[:cut]))
		_, _, err := fr.Next()
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("stream cut at %d/%d bytes: err %v, want ProtocolError", cut, len(raw), err)
		}
	}
}

func TestFrameLengthBound(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	if err := fw.Write(FramePairs, make([]byte, maxFramePayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	// A corrupt header claiming an absurd length must fail without
	// attempting the allocation.
	hdr := make([]byte, frameHeaderSize)
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0xff
	fr := NewFrameReader(bytes.NewReader(hdr))
	_, _, err := fr.Next()
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("absurd length: err %v, want ProtocolError", err)
	}
}

func TestPartChunkCodec(t *testing.T) {
	ks := []geom.KPE{
		{ID: 1, Rect: geom.Rect{XL: 0.1, YL: 0.2, XH: 0.3, YH: 0.4}},
		{ID: 99, Rect: geom.Rect{XL: 0.5, YL: 0.6, XH: 0.7, YH: 0.8}},
	}
	payload := encodePartChunk(nil, 5, 'S', true, ks)
	c, err := decodePartChunk(payload)
	if err != nil {
		t.Fatal(err)
	}
	// appendTo extends what the side already holds.
	prior := geom.KPE{ID: 7}
	got := c.appendTo([]geom.KPE{prior})
	if c.part != 5 || c.side != 'S' || !c.last || len(got) != 1+len(ks) || got[0] != prior {
		t.Fatalf("decoded (%d, %q, %v, %d records after the prior one)", c.part, c.side, c.last, len(got)-1)
	}
	for i := range ks {
		if got[1+i] != ks[i] {
			t.Fatalf("record %d: %+v, want %+v", i, got[1+i], ks[i])
		}
	}
	if _, err := decodePartChunk(payload[:len(payload)-1]); err == nil {
		t.Fatal("short part chunk accepted")
	}
}

func TestPairsAndSealCodec(t *testing.T) {
	ps := []geom.Pair{{R: 1, S: 2}, {R: 3, S: 4}, {R: 5, S: 6}}
	payload := encodePairs(nil, 9, ps)
	part, got, err := decodePairs(payload)
	if err != nil {
		t.Fatal(err)
	}
	if part != 9 || len(got) != 3 {
		t.Fatalf("decoded part %d with %d pairs", part, len(got))
	}
	for i := range ps {
		if got[i] != ps[i] {
			t.Fatalf("pair %d: %+v, want %+v", i, got[i], ps[i])
		}
	}
	part, n, err := decodeSeal(encodeSeal(4, 12345))
	if err != nil || part != 4 || n != 12345 {
		t.Fatalf("seal decoded (%d, %d, %v)", part, n, err)
	}
	if _, _, err := decodeSeal([]byte{1, 2, 3}); err == nil {
		t.Fatal("short seal accepted")
	}
}

func TestWorkerFailureRoundTrip(t *testing.T) {
	// A joinerr-wrapped failure keeps its Kind across the process
	// boundary; that Kind is what the coordinator's retry policy reads.
	for _, kind := range []joinerr.Kind{joinerr.KindShard, joinerr.KindCanceled} {
		cause := joinerr.WrapAs("shard", "worker", kind, errors.New("boom"))
		back := failureFromError(cause).toError()
		if got := joinerr.KindOf(back); got != kind {
			t.Fatalf("kind %v survived the wire as %v", kind, got)
		}
	}
}

// mangleStream writes a deliberately damaged frame stream into one end
// of an in-memory connection and returns the readable end — the
// transport-shaped seam the torn-frame tests read from. The writer side
// closes when done, so a reader must terminate with io.EOF or a
// ProtocolError; anything else (a hang, a panic, a decoded garbage
// frame) is a bug.
func mangleStream(t *testing.T, raw []byte) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		_, _ = server.Write(raw)
	}()
	return client
}

// drainFrames reads frames until the stream ends, enforcing the
// torn-frame contract: every outcome is io.EOF or a retryable
// ProtocolError, reached without hanging.
func drainFrames(t *testing.T, conn net.Conn, wantProto bool) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer conn.Close()
	fr := NewFrameReader(conn)
	for {
		_, _, err := fr.Next()
		if err == nil {
			continue
		}
		if err == io.EOF {
			if wantProto {
				t.Fatal("mangled stream drained cleanly, want ProtocolError")
			}
			return
		}
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("mangled stream surfaced %v (%T), want ProtocolError", err, err)
		}
		return
	}
}

func TestFrameManglingOverConn(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for _, w := range []struct {
		t FrameType
		p []byte
	}{
		{FrameJob, []byte(`{"shard":1,"attempt":1}`)},
		{FramePairs, encodePairs(nil, 3, []geom.Pair{{R: 1, S: 2}, {R: 3, S: 4}})},
		{FrameSeal, encodeSeal(3, 2)},
	} {
		if err := fw.Write(w.t, w.p); err != nil {
			t.Fatal(err)
		}
	}
	valid := buf.Bytes()

	cases := []struct {
		name      string
		mangle    func([]byte) []byte
		wantProto bool
	}{
		{"intact", func(b []byte) []byte { return b }, false},
		{"truncated-mid-payload", func(b []byte) []byte { return b[:len(b)-5] }, true},
		{"truncated-mid-header", func(b []byte) []byte { return b[:len(b)-len(valid)+4] }, true},
		{"payload-bit-flip", func(b []byte) []byte { b[frameHeaderSize+2] ^= 0x04; return b }, true},
		{"type-bit-flip", func(b []byte) []byte { b[4] ^= 0x20; return b }, true},
		{"crc-bit-flip", func(b []byte) []byte { b[6] ^= 0x80; return b }, true},
		{"oversized-length-prefix", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[0:], uint32(maxFramePayload)+1)
			return b
		}, true},
		{"length-stretched", func(b []byte) []byte {
			// Claim one more payload byte than the stream holds: the
			// reader must report truncation, not block for more input.
			n := binary.LittleEndian.Uint32(b[0:])
			binary.LittleEndian.PutUint32(b[0:], n+1)
			return b[:frameHeaderSize+int(n)]
		}, true},
		{"garbage-prefix", func(b []byte) []byte {
			return append([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05}, b...)
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.mangle(append([]byte(nil), valid...))
			drainFrames(t, mangleStream(t, raw), tc.wantProto)
		})
	}
}

func FuzzFrameReader(f *testing.F) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	_ = fw.Write(FrameJob, []byte(`{"shard":1}`))
	_ = fw.Write(FramePairs, encodePairs(nil, 0, []geom.Pair{{R: 7, S: 9}}))
	_ = fw.Write(FrameGo, nil)
	valid := buf.Bytes()

	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)-3]...))
	flipped := append([]byte(nil), valid...)
	flipped[frameHeaderSize+1] ^= 0x10
	f.Add(flipped)
	oversized := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(oversized, 0xffffffff)
	f.Add(oversized)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		// A frame costs at least a header, so the stream bounds the loop;
		// the explicit cap turns any looping bug into a failure instead
		// of a timeout.
		for i := 0; i <= len(data)/frameHeaderSize+1; i++ {
			_, _, err := fr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				var pe *ProtocolError
				if !errors.As(err, &pe) {
					t.Fatalf("fuzzed stream surfaced %v (%T), want ProtocolError or io.EOF", err, err)
				}
				return
			}
		}
		t.Fatalf("reader decoded more frames than the %d-byte stream can hold", len(data))
	})
}
