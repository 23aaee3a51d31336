package shard

import (
	"bytes"
	"io"
	"os"
	"os/exec"

	"spatialjoin/internal/joinerr"
)

// Link is one live frame conversation with a worker, whatever carries
// it: a spawned process's stdin/stdout pipes (spawnLink) or a TCP
// connection to a resident worker leased from a Pool (leaseLink). The
// coordinator's supervision loop is written against this interface only
// — heartbeat watchdog, chaos and verdict logic are identical on both,
// which is what makes the determinism contract transport-independent.
type Link interface {
	// Send returns the frame writer toward the worker.
	Send() *FrameWriter
	// Recv returns the frame reader from the worker.
	Recv() *FrameReader
	// CloseSend signals end of coordinator→worker input after the job
	// has been shipped. Best-effort: the protocol's go frame already
	// marks the input boundary, so links that cannot half-close may
	// no-op.
	CloseSend()
	// Kill forcibly tears the link down: the process is killed, the
	// connection closed. Idempotent.
	Kill()
	// Wait blocks until the worker side of the link has finished and
	// returns the exit observation — a wrapped *exec.ExitError for a
	// spawned process, nil for a network link (a connection has no exit
	// status; its death is visible on the frame stream instead).
	Wait() error
	// Finish releases the link's resources. failed reports the attempt's
	// verdict so a pool can penalize or evict the endpoint behind a
	// failed link and reset a healthy one.
	Finish(failed bool)
	// Endpoint names the remote worker ("host:port"), or "" for a
	// locally spawned process.
	Endpoint() string
	// StderrTail returns captured worker diagnostics, valid after Wait;
	// nil when the link has no side channel.
	StderrTail() []byte
}

// spawnLink starts one local worker process — this binary re-executed
// as "<exe> -shard-worker" (ServeIfWorker), inheriting the environment —
// and speaks the frame protocol on its stdin/stdout.
func spawnLink() (Link, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, joinerr.WrapAs("shard", "spawn", joinerr.KindShard, err)
	}
	cmd := exec.Command(exe, workerFlag)
	l := &procLink{cmd: cmd}
	cmd.Stderr = &l.stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, joinerr.WrapAs("shard", "spawn", joinerr.KindShard, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, joinerr.WrapAs("shard", "spawn", joinerr.KindShard, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, joinerr.WrapAs("shard", "spawn", joinerr.KindShard, err)
	}
	l.stdin = stdin
	l.fw = NewFrameWriter(stdin)
	l.fr = NewFrameReader(stdout)
	return l, nil
}

// procLink is one spawned worker process.
type procLink struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	fw     *FrameWriter
	fr     *FrameReader
	stderr bytes.Buffer
}

func (l *procLink) Send() *FrameWriter { return l.fw }
func (l *procLink) Recv() *FrameReader { return l.fr }
func (l *procLink) CloseSend()         { _ = l.stdin.Close() }
func (l *procLink) Kill()              { _ = l.cmd.Process.Kill() }
func (l *procLink) Finish(bool)        {}
func (l *procLink) Endpoint() string   { return "" }

// StderrTail returns the worker's captured stderr; exec's copier is
// joined by Wait, so the buffer is stable once Wait returned.
func (l *procLink) StderrTail() []byte { return l.stderr.Bytes() }

// Wait reaps the worker process. The exit status stays reachable
// through the wrapped chain (errors.As to *exec.ExitError).
func (l *procLink) Wait() error {
	err := l.cmd.Wait()
	if err != nil {
		return joinerr.WrapAs("shard", "wait", joinerr.KindShard, err)
	}
	return nil
}
