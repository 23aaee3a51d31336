package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/pbsm"
)

// TestWorkerJoinsOnlyCompleteInput: a worker joins a partition only once
// both of its sides arrived up to their last chunk. A go frame while a
// side still waits for its last chunk, or a chunk after a side's last,
// is refused with a KindShard ProtocolError and a fail frame — joining
// would run against a short side and seal with a count that still
// matches what it sent. A complete conversation, chunked, still seals.
func TestWorkerJoinsOnlyCompleteInput(t *testing.T) {
	const memory = 32 << 10
	gs := pbsm.PlanGrid(1500, 1500, pbsm.Config{Memory: memory})
	if gs.Parts < 2 || !gs.Valid() {
		t.Fatalf("test setup: grid %v", gs)
	}
	job, err := json.Marshal(JobSpec{Proto: ProtoVersion, Parts: []int{0}, Grid: gs, Memory: memory})
	if err != nil {
		t.Fatal(err)
	}
	rs, ss := datagen.Uniform(101, 200, 0.05), datagen.Uniform(202, 200, 0.05)
	type frame struct {
		t FrameType
		p []byte
	}
	part := func(side byte, last bool, ks []geom.KPE) frame {
		return frame{FramePart, encodePartChunk(nil, 0, side, last, ks)}
	}
	start := frame{FrameGo, nil}
	for _, tc := range []struct {
		name   string
		frames []frame
		refuse bool
	}{
		{"S side missing", []frame{part('R', true, rs), start}, true},
		{"S side short", []frame{part('R', true, rs), part('S', false, ss[:100]), start}, true},
		{"chunk after last", []frame{part('R', true, rs[:100]), part('R', true, rs[100:]), part('S', true, ss), start}, true},
		{"complete", []frame{part('R', false, rs[:100]), part('R', true, rs[100:]), part('S', true, ss), start}, false},
	} {
		var in, out bytes.Buffer
		fw := NewFrameWriter(&in)
		for _, f := range append([]frame{{FrameJob, job}}, tc.frames...) {
			if err := fw.Write(f.t, f.p); err != nil {
				t.Fatal(err)
			}
		}
		werr := WorkerMain(&in, &out)
		var pe *ProtocolError
		if tc.refuse && (joinerr.KindOf(werr) != joinerr.KindShard || !errors.As(werr, &pe)) {
			t.Fatalf("%s: WorkerMain returned %v, want a KindShard ProtocolError", tc.name, werr)
		}
		if !tc.refuse && werr != nil {
			t.Fatalf("%s: WorkerMain returned %v", tc.name, werr)
		}
		var seals, pairs, sealed int64
		var last FrameType
		fr := NewFrameReader(&out)
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				break
			}
			switch typ {
			case FramePairs:
				_, ps, derr := decodePairs(payload)
				if derr != nil {
					t.Fatal(derr)
				}
				pairs += int64(len(ps))
			case FrameSeal:
				_, n, derr := decodeSeal(payload)
				if derr != nil {
					t.Fatal(derr)
				}
				seals, sealed = seals+1, n
			}
			if typ != FrameBeat {
				last = typ
			}
		}
		switch {
		case tc.refuse && (last != FrameFail || seals != 0):
			t.Fatalf("%s: worker ended on frame %d after %d seals, want a fail frame and no seal", tc.name, last, seals)
		case !tc.refuse && (last != FrameDone || seals != 1 || sealed != pairs || pairs == 0):
			t.Fatalf("%s: worker ended on frame %d after %d seals of %d pairs (%d sent), want one seal of some pairs and a done frame", tc.name, last, seals, sealed, pairs)
		}
	}
}

// TestWorkerNeedsNoHostDirectory: a worker's disk is simulated, so a
// job touches nothing on the worker's host. A job from an older
// coordinator that still names a per-attempt scratch directory — here
// one no process can create — runs and seals its pair like any other.
func TestWorkerNeedsNoHostDirectory(t *testing.T) {
	const memory = 32 << 10
	gs := pbsm.PlanGrid(1500, 1500, pbsm.Config{Memory: memory})
	job, err := json.Marshal(struct {
		JobSpec
		TmpDir string `json:"tmp_dir"`
	}{JobSpec{Proto: ProtoVersion, Parts: []int{0}, Grid: gs, Memory: memory}, "/dev/null/x"})
	if err != nil {
		t.Fatal(err)
	}
	rs, ss := datagen.Uniform(101, 200, 0.05), datagen.Uniform(202, 200, 0.05)
	var in, out bytes.Buffer
	fw := NewFrameWriter(&in)
	for _, f := range []struct {
		t FrameType
		p []byte
	}{
		{FrameJob, job},
		{FramePart, encodePartChunk(nil, 0, 'R', true, rs)},
		{FramePart, encodePartChunk(nil, 0, 'S', true, ss)},
		{FrameGo, nil},
	} {
		if err := fw.Write(f.t, f.p); err != nil {
			t.Fatal(err)
		}
	}
	if err := runConversation(NewFrameReader(&in), NewFrameWriter(&out)); err != nil {
		t.Fatalf("runConversation: %v", err)
	}
	var pairs, sealed int64 = 0, -1
	fr := NewFrameReader(&out)
	for {
		typ, payload, err := fr.Next()
		if err != nil {
			break
		}
		switch typ {
		case FramePairs:
			_, ps, derr := decodePairs(payload)
			if derr != nil {
				t.Fatal(derr)
			}
			pairs += int64(len(ps))
		case FrameSeal:
			if _, sealed, err = decodeSeal(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if pairs == 0 || sealed != pairs {
		t.Fatalf("sealed %d of %d pairs, want a seal of every pair and some pairs", sealed, pairs)
	}
}

// TestWorkerStreamsPairs: a worker runs and seals a partition as soon as
// both of its sides are complete, before the rest of its input or the go
// frame arrives, and a shard whose pairs all fit Memory touches no disk.
// The link is a synchronous net.Pipe: the seal must arrive while the
// coordinator side still holds part 1.
func TestWorkerStreamsPairs(t *testing.T) {
	const memory = 32 << 10
	R, S := datagen.Uniform(101, 1500, 0.004), datagen.Uniform(202, 1500, 0.004)
	gs, err := pbsm.PlanGridFor(R, S, pbsm.Config{Memory: memory})
	if err != nil {
		t.Fatal(err)
	}
	parts := []int{0, 1}
	rsl, err := pbsm.PartitionSlices(R, gs, parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	ssl, err := pbsm.PartitionSlices(S, gs, parts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if n := len(rsl[p]) + len(ssl[p]); len(rsl[p]) == 0 || len(ssl[p]) == 0 || n*geom.KPESize > memory {
			t.Fatalf("test setup: partition %d holds %d+%d records against a budget of %d", p, len(rsl[p]), len(ssl[p]), memory/geom.KPESize)
		}
	}
	job, err := json.Marshal(JobSpec{Proto: ProtoVersion, Parts: parts, Grid: gs, Memory: memory})
	if err != nil {
		t.Fatal(err)
	}

	coord, worker := net.Pipe()
	defer coord.Close()
	werr := make(chan error, 1)
	go func() {
		defer worker.Close()
		werr <- WorkerMain(worker, worker)
	}()
	fw, fr := NewFrameWriter(coord), NewFrameReader(coord)
	shipPart := func(p int) error {
		if err := fw.Write(FramePart, encodePartChunk(nil, p, 'R', true, rsl[p])); err != nil {
			return err
		}
		return fw.Write(FramePart, encodePartChunk(nil, p, 'S', true, ssl[p]))
	}
	// next reads up to the next frame that is not a beat.
	next := func() (FrameType, []byte) {
		t.Helper()
		if err := coord.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				t.Fatalf("reading the worker: %v", err)
			}
			if typ != FrameBeat {
				return typ, payload
			}
		}
	}
	// awaitSeal reads part's pairs frames up to its seal and checks the count.
	awaitSeal := func(part int) {
		t.Helper()
		var pairs int64
		for {
			typ, payload := next()
			switch typ {
			case FramePairs:
				p, ps, err := decodePairs(payload)
				if err != nil || p != part {
					t.Fatalf("pairs frame for partition %d (%v) while partition %d runs", p, err, part)
				}
				pairs += int64(len(ps))
			case FrameSeal:
				p, n, err := decodeSeal(payload)
				if err != nil || p != part || n != pairs {
					t.Fatalf("seal of partition %d with %d pairs (%v), want partition %d with %d", p, n, err, part, pairs)
				}
				return
			default:
				t.Fatalf("frame %d while partition %d runs", typ, part)
			}
		}
	}

	if err := fw.Write(FrameJob, job); err != nil {
		t.Fatal(err)
	}
	if err := shipPart(0); err != nil {
		t.Fatal(err)
	}
	awaitSeal(0)

	// The pipe has no buffer: ship the rest while reading the results.
	shipped := make(chan error, 1)
	go func() {
		err := shipPart(1)
		if err == nil {
			err = fw.Write(FrameGo, nil)
		}
		shipped <- err
	}()
	awaitSeal(1)
	typ, payload := next()
	if typ != FrameDone {
		t.Fatalf("frame %d after the last seal, want done", typ)
	}
	var rep WorkerReport
	if err := json.Unmarshal(payload, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.IO != (diskio.Stats{}) || rep.LiveFiles != 0 || rep.CPUNanos <= 0 {
		t.Fatalf("report %+v, want no I/O, no files and some CPU", rep)
	}
	if err := <-shipped; err != nil {
		t.Fatal(err)
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
}
