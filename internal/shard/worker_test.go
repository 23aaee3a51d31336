package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"spatialjoin/internal/datagen"
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
