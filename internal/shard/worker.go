package shard

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/pbsm"
)

// WorkerMain is the entry point of a shard worker process: it speaks
// the frame protocol on (in, out) — normally the process's stdin and
// stdout — executes its assigned partition pairs on a private simulated
// disk, and exits. ServeIfWorker runs it in a process started with
// -shard-worker, the one way a coordinator spawns a worker.
//
// The conversation: read the JobSpec, then the partitions' R and S
// chunks. As soon as both sides of the next assigned partition
// (ascending) are complete, run the pair, stream its result pairs, seal
// it with a count cross-check and drop its records; the coordinator
// ships R then S partition by partition, so the worker holds about one
// pair at a time and its first seal follows its first pair. The go frame
// ends the input. Heartbeats flow from the job on, on a separate
// goroutine. A clean run ends with a done frame carrying the worker's
// report; a failed run ends with a fail frame carrying the structured
// error. The error returned by WorkerMain is for the process's exit
// status only — everything the coordinator needs is on the pipe.
func WorkerMain(in io.Reader, out io.Writer) error {
	return runConversation(NewFrameReader(in), NewFrameWriter(out))
}

// workerFlag is the whole argument list of a spawned worker process.
const workerFlag = "-shard-worker"

// ServeIfWorker turns this process into a shard worker when its
// arguments are exactly -shard-worker (or --shard-worker), the command
// spawnLink starts: it runs WorkerMain on stdin and stdout and exits
// with its status. Otherwise it returns at once. A program that sets
// Shards > 1 calls it first in main, before anything else touches those
// pipes; a test binary that runs sharded joins calls it first in
// TestMain, so that its re-execution never reaches the test flags.
func ServeIfWorker() {
	if len(os.Args) != 2 || os.Args[1] != workerFlag && os.Args[1] != "-"+workerFlag {
		return
	}
	if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "%s: shard worker: %v\n", filepath.Base(os.Args[0]), err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runConversation serves one job conversation over an established frame
// link — a process's pipes (WorkerMain) or one accepted connection of a
// resident worker (ServeWorker). The protocol is byte-identical on both
// transports.
func runConversation(fr *FrameReader, fw *FrameWriter) error {
	spec, err := readJob(fr, fw)
	if err != nil {
		// Best effort: the coordinator learns more from a fail frame
		// than from a bare exit, but a torn pipe can defeat both.
		_ = sendFail(fw, err)
		return err
	}

	// Heartbeats: the watchdog on the other side resets on ANY frame,
	// so the beat goroutine only needs to cover gaps between result
	// flushes (input still in flight, a long repartition recursion, a big
	// in-memory sweep).
	stop := make(chan struct{})
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		t := time.NewTicker(heartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if fw.Write(FrameBeat, nil) != nil {
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		<-beatDone
	}()

	report, err := workerRun(spec, fr, fw)
	if err != nil {
		_ = sendFail(fw, err)
		return err
	}
	payload, err := marshalJSON(report)
	if err != nil {
		_ = sendFail(fw, err)
		return err
	}
	if err := fw.Write(FrameDone, payload); err != nil {
		return joinerr.WrapAs("shard", "worker", joinerr.KindShard, err)
	}
	return nil
}

// readJob reads and validates the job spec. Ping frames ahead of the job
// are health checks from a pool lease; each is answered with a beat.
func readJob(fr *FrameReader, fw *FrameWriter) (*JobSpec, error) {
	var spec *JobSpec
	for spec == nil {
		t, payload, err := fr.Next()
		if err != nil {
			return nil, joinerr.WrapAs("shard", "worker", joinerr.KindShard, err)
		}
		switch t {
		case FramePing:
			if err := fw.Write(FrameBeat, nil); err != nil {
				return nil, joinerr.WrapAs("shard", "worker", joinerr.KindShard, err)
			}
		case FrameJob:
			spec = &JobSpec{}
			if err := unmarshalJSON(payload, spec); err != nil {
				return nil, joinerr.WrapAs("shard", "worker", joinerr.KindShard, err)
			}
		default:
			return nil, joinerr.WrapAs("shard", "worker", joinerr.KindShard, protoErrf("first frame is type %d, want job or ping", t))
		}
	}
	// A job that decodes but means something else must not run: a
	// coordinator of another version routes by rules this worker does not
	// have, and a grid without its table or its rows (Valid) has no
	// routing or no stripes at all, and an algorithm it does not know
	// names no sweep. Joining anyway would put reference points in the
	// wrong partitions, or results in another order, silently.
	if spec.Proto != ProtoVersion {
		return nil, joinerr.WrapAs("shard", "config", joinerr.KindShard, protoErrf("job speaks protocol %d, this worker %d", spec.Proto, ProtoVersion))
	}
	if !spec.Grid.Valid() || spec.Memory <= 0 || !spec.Algorithm.Valid() {
		return nil, joinerr.WrapAs("shard", "config", joinerr.KindShard, protoErrf("job spec invalid: grid %s, memory %d, algorithm %q",
			spec.Grid, spec.Memory, spec.Algorithm))
	}
	return spec, nil
}

// workerRun receives the job's input and runs each assigned pair, in
// spec.Parts order, as soon as both of its sides are complete; the go
// frame ends the input and yields the report.
func workerRun(spec *JobSpec, fr *FrameReader, fw *FrameWriter) (*WorkerReport, error) {
	disk := diskio.NewDisk(spec.PageSize, spec.PT, spec.transfer())
	ex, err := pbsm.NewPairExec(spec.pbsmConfig(disk), spec.Grid)
	if err != nil {
		return nil, err
	}
	defer ex.Close()

	rsl := make(map[int][]geom.KPE, len(spec.Parts))
	ssl := make(map[int][]geom.KPE, len(spec.Parts))
	for _, p := range spec.Parts {
		rsl[p], ssl[p] = nil, nil
	}
	// A side is complete once its last chunk arrived. Joining before both
	// sides are complete would join against a short side and seal with a
	// count that still matches, so a pair runs only then, and a go frame
	// ahead of a last chunk, or a chunk after one, is a protocol error.
	type partSide struct {
		part int
		side byte
	}
	complete := make(map[partSide]bool, 2*len(rsl))
	sender := &resultSender{fw: fw}
	var busy time.Duration // joining and sealing, not waiting for input
	next := 0              // spec.Parts[next] is the first pair not yet run
	for {
		t, payload, err := fr.Next()
		if err != nil {
			return nil, joinerr.WrapAs("shard", "worker", joinerr.KindShard, err)
		}
		switch t {
		case FrameGo:
			if next < len(spec.Parts) {
				return nil, joinerr.WrapAs("shard", "worker", joinerr.KindShard, protoErrf("go frame with %d of %d partition sides complete", len(complete), 2*len(rsl)))
			}
			ex.Close()
			return &WorkerReport{
				IO:        disk.Stats(),
				CPUNanos:  busy.Nanoseconds(),
				LiveFiles: disk.NumFiles(),
			}, nil
		case FramePart:
			c, err := decodePartChunk(payload)
			if err != nil {
				return nil, joinerr.WrapAs("shard", "worker", joinerr.KindShard, err)
			}
			dst := rsl
			if c.side == 'S' {
				dst = ssl
			}
			if _, ok := dst[c.part]; !ok {
				return nil, joinerr.WrapAs("shard", "worker", joinerr.KindShard, protoErrf("part frame for unassigned partition %d", c.part))
			}
			if complete[partSide{c.part, c.side}] {
				return nil, joinerr.WrapAs("shard", "worker", joinerr.KindShard, protoErrf("part frame for partition %d side %c after its last chunk", c.part, c.side))
			}
			dst[c.part] = c.appendTo(dst[c.part])
			if !c.last {
				continue
			}
			complete[partSide{c.part, c.side}] = true
			for ; next < len(spec.Parts); next++ {
				p := spec.Parts[next]
				if !complete[partSide{p, 'R'}] || !complete[partSide{p, 'S'}] {
					break
				}
				start := time.Now()
				if err := sender.runPair(ex, p, rsl[p], ssl[p]); err != nil {
					return nil, err
				}
				busy += time.Since(start)
				rsl[p], ssl[p] = nil, nil
			}
		default:
			return nil, joinerr.WrapAs("shard", "worker", joinerr.KindShard, protoErrf("unexpected frame type %d during input", t))
		}
	}
}

// resultSender batches one partition's result pairs into pairs frames
// and seals the partition when the pair completes.
type resultSender struct {
	fw      *FrameWriter
	part    int
	buf     []geom.Pair
	scratch []byte
	sent    int64 // pairs flushed for the current partition
	err     error
}

const senderBatch = 512

// runPair joins partition part, streams its results and seals it.
func (s *resultSender) runPair(ex *pbsm.PairExec, part int, rs, ss []geom.KPE) error {
	s.part = part
	s.sent = 0
	s.buf = s.buf[:0]
	if err := ex.RunPair(part, rs, ss, s.send); err != nil {
		return err
	}
	if s.err != nil {
		return joinerr.WrapAs("shard", "emit", joinerr.KindShard, s.err)
	}
	if err := s.seal(); err != nil {
		return joinerr.WrapAs("shard", "emit", joinerr.KindShard, err)
	}
	return nil
}

// send is the PairExec sink. It must not return an error (the sink
// signature has none), so a write failure latches into s.err and
// further pairs are dropped; the worker surfaces the error after the
// pair returns.
func (s *resultSender) send(p geom.Pair) {
	if s.err != nil {
		return
	}
	s.buf = append(s.buf, p)
	if len(s.buf) >= senderBatch {
		s.flush()
	}
}

func (s *resultSender) flush() {
	if s.err != nil || len(s.buf) == 0 {
		return
	}
	s.scratch = encodePairs(s.scratch, s.part, s.buf)
	s.err = s.fw.Write(FramePairs, s.scratch)
	s.sent += int64(len(s.buf))
	s.buf = s.buf[:0]
}

func (s *resultSender) seal() error {
	s.flush()
	if s.err != nil {
		return s.err
	}
	return s.fw.Write(FrameSeal, encodeSeal(s.part, s.sent))
}

// sendFail ships a structured failure; the worker exits non-zero after.
func sendFail(fw *FrameWriter, cause error) error {
	payload, err := marshalJSON(failureFromError(cause))
	if err != nil {
		return err
	}
	return fw.Write(FrameFail, payload)
}
