package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"

	"spatialjoin/internal/joinerr"
)

// The TCP transport carries the exact frame protocol of the pipe
// transport over a network connection to a resident worker: same CRC-32C
// frames, same conversation, same heartbeats — only the byte channel
// changes. One connection carries one job; the resident worker process
// outlives the connection, which is the cost model's point: a lease is
// a dial (microseconds) where a spawn is a fork/exec (milliseconds),
// and the worker's warmed state survives between joins.

// ConnectError reports that the network transport could not produce a
// usable worker link: every endpoint is quarantined, dial-failing, or
// the lease wait timed out. It marks a rung boundary on the degradation
// ladder — the coordinator reacts by falling back to locally spawned
// workers for the shard instead of consuming a restart, so an
// unreachable worker fleet slows a join down rather than failing it.
type ConnectError struct {
	// Endpoints is the pool's configured endpoint count.
	Endpoints int
	// Err is the terminal observation (last dial error, "all endpoints
	// quarantined", lease timeout).
	Err error
}

// Error implements error.
func (e *ConnectError) Error() string {
	return fmt.Sprintf("shard: no usable worker endpoint (of %d): %v", e.Endpoints, e.Err)
}

// Unwrap exposes the cause.
func (e *ConnectError) Unwrap() error { return e.Err }

// leaseLink leases a healthy resident worker from pool and speaks the
// frame protocol over its connection. A pool that cannot produce any
// usable link returns a *ConnectError — the coordinator's signal to
// degrade to a spawned worker instead of burning a restart.
func leaseLink(ctx context.Context, pool *Pool) (Link, error) {
	lease, err := pool.Lease(ctx)
	if err != nil {
		return nil, err
	}
	return &netLink{lease: lease}, nil
}

// netLink is one leased connection to a resident worker.
type netLink struct {
	lease *Lease
}

func (l *netLink) Send() *FrameWriter { return l.lease.fw }
func (l *netLink) Recv() *FrameReader { return l.lease.fr }

// CloseSend half-closes the write side when the connection supports it;
// the go frame already bounds the worker's input, so this is advisory.
func (l *netLink) CloseSend() {
	if cw, ok := l.lease.conn.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
}

// Kill closes the connection; the resident worker sees the stream tear
// and abandons the conversation, while the process itself survives for
// the next lease.
func (l *netLink) Kill() { _ = l.lease.conn.Close() }

// Wait implements Link. A connection has no exit status: a dead remote
// worker is visible only as a torn or silent frame stream, which the
// supervision loop already converts into a verdict.
func (l *netLink) Wait() error { return nil }

// Finish returns the lease; a failed attempt penalizes the endpoint.
func (l *netLink) Finish(failed bool) { l.lease.Release(failed) }

func (l *netLink) Endpoint() string   { return l.lease.ep.addr }
func (l *netLink) StderrTail() []byte { return nil }

// ServeWorker turns the current process into a resident shard worker:
// it accepts connections on ln and serves one job conversation per
// connection, concurrently. A connection opens with either a ping
// (health check — answered with a beat) or a job frame; when the
// conversation ends — done, fail, or a torn stream — the connection is
// closed and the worker awaits the next lease. ListenAndServe wraps it
// for the sjworkerd daemon.
//
// ServeWorker returns nil when ln is closed, which is the shutdown
// signal.
func ServeWorker(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return joinerr.WrapAs("shard", "accept", joinerr.KindShard, err)
		}
		// One goroutine per connection: each ends with its conversation,
		// and closing ln stops the accept loop.
		go func(c net.Conn) {
			defer c.Close()
			// Errors end the conversation; the structured part already
			// went out as a fail frame where the link allowed it, and a
			// resident worker must outlive any single bad conversation.
			_ = runConversation(NewFrameReader(c), NewFrameWriter(c))
		}(conn)
	}
}

// ListenAndServe is a resident worker's whole life: bind addr, announce
// the bound address on announce as a "listening <addr>" line (what
// scripts scan for to learn a kernel-chosen port), then ServeWorker
// until the listener fails. sjworkerd runs it.
func ListenAndServe(addr string, announce io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return joinerr.WrapAs("shard", "listen", joinerr.KindShard, err)
	}
	if _, err := fmt.Fprintf(announce, "listening %s\n", ln.Addr()); err != nil {
		_ = ln.Close()
		return joinerr.WrapAs("shard", "listen", joinerr.KindShard, err)
	}
	return ServeWorker(ln)
}
