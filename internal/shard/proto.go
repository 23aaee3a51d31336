package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/sweep"
)

// JobSpec is the first frame of every worker conversation: everything a
// worker needs to execute its partition subset EXACTLY as the
// single-process join would. Memory is the full join budget — it feeds
// the repartition arithmetic and must match the planning run.
//
// Older builds also wrote mem_slice (an admission slice a worker's own
// governor always granted), heartbeat_ns (always the 100 ms this build's
// workers beat at) and max_recurse (a recursion cap no caller set). JSON
// decoding ignores unknown fields, and a missing one decodes to zero,
// which the older workers read as "no limit", "100 ms" and "the default
// cap": builds on either side of that change interoperate under
// the same ProtoVersion. The same holds for dup (the duplicate method,
// zero for the Reference Point Method, the only one this build shards),
// tmp_dir (a host scratch directory no worker needs, its disk being
// simulated) and kill (a point at which the worker was to SIGKILL
// itself; the coordinator kills the link instead, ChaosSpec, and a worker
// runs every job it accepts to its done or fail frame). A job whose dup
// named a third method came with a grid that has no table, and
// Grid.Valid refuses it.
type JobSpec struct {
	// Proto is the version of the job's meaning, ProtoVersion on every
	// frame this coordinator writes. It moves when a field changes what a
	// worker must DO with a job that still decodes — version 2: the
	// grid's tile→partition table (pbsm.GridSpec.Assign) is the routing,
	// where a version-1 worker hashed tile ids itself; version 3: the
	// grid's Rows is every pair's stripe count, where a version-2 worker
	// cut each pair by its own record count and emitted its results in
	// another order. A worker refuses any other value with a fail frame
	// instead of joining by its own idea of the plan.
	Proto int `json:"proto,omitempty"`

	Shard   int   `json:"shard"`
	Attempt int   `json:"attempt"`
	Parts   []int `json:"parts"` // assigned top-level partitions, ascending

	Grid   pbsm.GridSpec `json:"grid"`
	Memory int64         `json:"memory"`

	Algorithm         sweep.Kind `json:"algorithm,omitempty"`
	TuneFactor        float64    `json:"tune_factor,omitempty"`
	TilesPerPartition int        `json:"tiles_per_partition,omitempty"`
	BufPages          int        `json:"buf_pages,omitempty"`
	PageSize          int        `json:"page_size,omitempty"`
	PT                float64    `json:"pt,omitempty"`
	TransferNS        int64      `json:"transfer_ns,omitempty"`
}

// pbsmConfig is the PBSM configuration the job describes, on disk: the one
// mapping both sides of the process boundary execute pairs by (the
// coordinator through Config.pbsmConfig).
func (s *JobSpec) pbsmConfig(disk *diskio.Disk) pbsm.Config {
	return pbsm.Config{
		Disk:              disk,
		Memory:            s.Memory,
		Algorithm:         s.Algorithm,
		TuneFactor:        s.TuneFactor,
		TilesPerPartition: s.TilesPerPartition,
		BufPages:          s.BufPages,
	}
}

// ProtoVersion is the JobSpec.Proto this build writes and accepts.
const ProtoVersion = 3

// KillSpec says at which point of an attempt the coordinator kills its
// worker's link.
type KillSpec struct {
	// Point is one of KillSpawn, KillMidPairs, KillMidEmit.
	Point string
	// AfterParts applies to KillMidPairs: kill once the attempt's
	// AfterParts-th seal is accepted.
	AfterParts int
	// AfterPairs applies to KillMidEmit: kill once the attempt's accepted
	// pairs frames hold AfterPairs result pairs, before the partition
	// they belong to seals.
	AfterPairs int
}

// The chaos kill points: as soon as the link exists (nothing done),
// between partitions (some work sealed), and mid-emission of a
// partition's results (unsealed results in flight, which the
// coordinator must discard).
const (
	KillSpawn    = "spawn"
	KillMidPairs = "mid-pairs"
	KillMidEmit  = "mid-emit"
)

// due reports whether the kill falls on an attempt that has accepted
// seals seals and pairs result pairs; KillSpawn falls at once, a nil
// spec never.
func (k *KillSpec) due(seals, pairs int) bool {
	switch {
	case k == nil:
		return false
	case k.Point == KillMidPairs:
		return seals >= k.AfterParts
	case k.Point == KillMidEmit:
		return pairs >= k.AfterPairs
	}
	return k.Point == KillSpawn
}

// WorkerReport is the done-frame payload: what the worker did, for the
// coordinator's aggregate accounting and the leak invariants.
type WorkerReport struct {
	IO diskio.Stats `json:"io"`
	// CPUNanos is the wall time the worker spent joining and sealing its
	// pairs (PairExec.RunPair plus the seal), summed over the pairs; time
	// spent waiting for input frames is not in it.
	CPUNanos int64 `json:"cpu_ns"`
	// LiveFiles is the worker's disk file count after its registry
	// sweep; anything but zero is a temp-file leak.
	LiveFiles int `json:"live_files"`
}

// workerFailure is the fail-frame payload: a structured abort that
// survives the process boundary with its joinerr Kind intact, so the
// coordinator can distinguish a cooperative cancellation (propagate)
// from a shard-local failure (retry).
type workerFailure struct {
	Method string `json:"method"`
	Phase  string `json:"phase"`
	File   string `json:"file,omitempty"`
	Kind   int    `json:"kind"`
	Msg    string `json:"msg"`
}

// failureFromError flattens an error for the wire.
func failureFromError(err error) workerFailure {
	f := workerFailure{Method: "shard", Phase: "worker", Kind: int(joinerr.KindOf(err)), Msg: err.Error()}
	var je *joinerr.JoinError
	if errors.As(err, &je) {
		f.Method, f.Phase, f.File = je.Method, je.Phase, je.File
	}
	return f
}

// toError rebuilds the structured error on the coordinator side.
func (f workerFailure) toError() error {
	return &joinerr.JoinError{
		Method: f.Method,
		Phase:  f.Phase,
		File:   f.File,
		Kind:   joinerr.Kind(f.Kind),
		Err:    fmt.Errorf("worker reported: %s", f.Msg),
	}
}

// WorkerExitError reports a worker that died without a clean protocol
// shutdown — killed, crashed, disconnected mid-frame, or gone while
// frames were still owed. It carries the exit status (local processes)
// or the endpoint (remote workers) for the KindShard error chain; a
// connection-level failure round-trips through it exactly like a
// process exit, so the coordinator's kill accounting and retry policy
// never distinguish the transports.
type WorkerExitError struct {
	Shard    int
	Attempt  int
	Endpoint string // remote worker address, "" for a local process
	ExitCode int    // -1 when terminated by a signal or remote
	Signal   string // signal name when killed, "" otherwise
	Err      error  // the protocol or wait error observed
}

// Error implements error.
func (e *WorkerExitError) Error() string {
	if e.Endpoint != "" {
		return fmt.Sprintf("shard %d attempt %d: remote worker %s failed: %v", e.Shard, e.Attempt, e.Endpoint, e.Err)
	}
	status := fmt.Sprintf("exit code %d", e.ExitCode)
	if e.Signal != "" {
		status = "signal " + e.Signal
	}
	return fmt.Sprintf("shard %d attempt %d: worker died (%s): %v", e.Shard, e.Attempt, status, e.Err)
}

// Unwrap exposes the cause.
func (e *WorkerExitError) Unwrap() error { return e.Err }

// Payload codecs for the binary frames. Part frames chunk a partition's
// records so one huge partition never exceeds the frame cap:
//
//	part uint32 | side uint8 ('R'/'S') | last uint8 | count uint32 | count × KPE
//
// Pairs frames carry results of one partition:
//
//	part uint32 | count uint32 | count × Pair
//
// Seal frames cross-check the partition's total result count:
//
//	part uint32 | results uint64

const (
	partChunkHeader = 10
	pairsHeader     = 8
	sealPayload     = 12
	// partChunkRecords bounds records per part frame chunk.
	partChunkRecords = (1 << 20) / geom.KPESize
)

func encodePartChunk(buf []byte, part int, side byte, last bool, ks []geom.KPE) []byte {
	need := partChunkHeader + len(ks)*geom.KPESize
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	binary.LittleEndian.PutUint32(buf[0:], uint32(part))
	buf[4] = side
	buf[5] = 0
	if last {
		buf[5] = 1
	}
	binary.LittleEndian.PutUint32(buf[6:], uint32(len(ks)))
	off := partChunkHeader
	for i := range ks {
		off += geom.EncodeKPE(buf[off:], ks[i])
	}
	return buf
}

// partChunk is a validated part frame: its header, and its records still
// encoded, aliasing the frame payload.
type partChunk struct {
	part int
	side byte // 'R' or 'S'
	last bool
	recs []byte // count × KPE
}

func decodePartChunk(payload []byte) (partChunk, error) {
	if len(payload) < partChunkHeader {
		return partChunk{}, protoErrf("part frame too short (%d bytes)", len(payload))
	}
	c := partChunk{
		part: int(binary.LittleEndian.Uint32(payload[0:])),
		side: payload[4],
		last: payload[5] == 1,
		recs: payload[partChunkHeader:],
	}
	n := int(binary.LittleEndian.Uint32(payload[6:]))
	if len(c.recs) != n*geom.KPESize {
		return partChunk{}, protoErrf("part frame length %d does not match %d records", len(payload), n)
	}
	if c.side != 'R' && c.side != 'S' {
		return partChunk{}, protoErrf("part frame side %q", c.side)
	}
	return c, nil
}

// appendTo decodes the chunk's records onto dst: the one copy a shipped
// record takes on its way into its side's slice.
func (c partChunk) appendTo(dst []geom.KPE) []geom.KPE {
	dst = slices.Grow(dst, len(c.recs)/geom.KPESize)
	for off := 0; off < len(c.recs); off += geom.KPESize {
		dst = append(dst, geom.DecodeKPE(c.recs[off:]))
	}
	return dst
}

func encodePairs(buf []byte, part int, ps []geom.Pair) []byte {
	need := pairsHeader + len(ps)*geom.PairSize
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	binary.LittleEndian.PutUint32(buf[0:], uint32(part))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(ps)))
	off := pairsHeader
	for i := range ps {
		off += geom.EncodePair(buf[off:], ps[i])
	}
	return buf
}

func decodePairs(payload []byte) (part int, ps []geom.Pair, err error) {
	if len(payload) < pairsHeader {
		return 0, nil, protoErrf("pairs frame too short (%d bytes)", len(payload))
	}
	part = int(binary.LittleEndian.Uint32(payload[0:]))
	n := int(binary.LittleEndian.Uint32(payload[4:]))
	if len(payload) != pairsHeader+n*geom.PairSize {
		return 0, nil, protoErrf("pairs frame length %d does not match %d pairs", len(payload), n)
	}
	// A fresh slice, never a view of payload: the frame reader reuses
	// payload, and the merge keeps ps until its partition is released.
	ps = make([]geom.Pair, n)
	off := pairsHeader
	for i := range ps {
		ps[i] = geom.DecodePair(payload[off:])
		off += geom.PairSize
	}
	return part, ps, nil
}

func encodeSeal(part int, results int64) []byte {
	buf := make([]byte, sealPayload)
	binary.LittleEndian.PutUint32(buf[0:], uint32(part))
	binary.LittleEndian.PutUint64(buf[4:], uint64(results))
	return buf
}

func decodeSeal(payload []byte) (part int, results int64, err error) {
	if len(payload) != sealPayload {
		return 0, 0, protoErrf("seal frame length %d, want %d", len(payload), sealPayload)
	}
	return int(binary.LittleEndian.Uint32(payload[0:])), int64(binary.LittleEndian.Uint64(payload[4:])), nil
}

// marshalJSON wraps encoding for the two JSON frame payloads.
func marshalJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, protoErrf("encoding %T: %v", v, err)
	}
	return b, nil
}

func unmarshalJSON(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return protoErrf("decoding %T: %v", v, err)
	}
	return nil
}

// transfer converts the wire nanoseconds back to a duration.
func (j *JobSpec) transfer() time.Duration { return time.Duration(j.TransferNS) }
