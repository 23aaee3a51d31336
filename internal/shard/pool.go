package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/trace"
)

// PoolConfig parameterizes a resident worker pool.
type PoolConfig struct {
	// Endpoints lists the resident workers' TCP addresses. Required.
	Endpoints []string
	// Dial overrides the dialer — the netfault injection hook and the
	// test seam. nil means a plain TCP dial.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// DialTimeout bounds one dial; default 2s.
	DialTimeout time.Duration
	// LeaseTimeout bounds one Lease call's total wait for a usable
	// link (endpoints busy with other shards, or backing off); default
	// 30s. Past it the pool reports a ConnectError and the caller
	// degrades.
	LeaseTimeout time.Duration
	// QuarantineAfter is the consecutive-failure count that quarantines
	// an endpoint (no further dials until the pool is rebuilt); default
	// 3. Quarantine is what turns a dead host from a retry treadmill
	// into a prompt degradation to local execution.
	QuarantineAfter int
	// Metrics publishes the pool's connection lifecycle counters and
	// the reconnect latency histogram — the pool's only record of them;
	// nil disables.
	Metrics *metrics.Registry
	// Trace receives evict/quarantine/reconnect instants; nil disables.
	Trace *trace.Recorder
}

// pingTimeout bounds the health-check round trip on a fresh connection.
const pingTimeout = time.Second

// endpoint is one resident worker's pool-side state, guarded by
// Pool.mu. Its failure streak paces its own redials (retryDelay keyed
// by addr), so one flapping host never slows its healthy siblings.
type endpoint struct {
	addr        string
	busy        bool
	quarantined bool
	failures    int       // consecutive failures; a clean release resets it
	retryAt     time.Time // backoff gate after a failure
}

// Pool manages a fleet of resident workers: endpoints register at
// construction, are health-checked with a ping/beat round trip on every
// lease, leased to one shard attempt at a time, and penalized — backoff,
// then quarantine — when a lease fails, instead of being respawned. The
// pool owns bookkeeping only; worker processes are external (sjworkerd)
// and connections belong to their leases.
// Safe for concurrent use by every shard of every join sharing it.
type Pool struct {
	cfg PoolConfig // defaults resolved by NewPool
	met *shardMetrics
	rec *trace.Recorder

	mu     sync.Mutex
	eps    []*endpoint
	closed bool // guarded by mu
}

// NewPool builds a pool over the configured endpoints.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, joinerr.Wrap("shard", "pool", errors.New("pool has no endpoints"))
	}
	if cfg.Dial == nil {
		cfg.Dial = dialTCP
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 30 * time.Second
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 3
	}
	p := &Pool{
		cfg: cfg,
		met: newShardMetrics(cfg.Metrics),
		rec: cfg.Trace,
	}
	for _, addr := range cfg.Endpoints {
		p.eps = append(p.eps, &endpoint{addr: addr})
	}
	return p, nil
}

// Close marks the pool unusable; in-flight leases keep their
// connections (they are owned by the leases), later Lease calls fail.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
}

// dialTCP is the default dialer: a plain TCP dial.
func dialTCP(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, joinerr.WrapAs("shard", "dial", joinerr.KindShard, err)
	}
	return conn, nil
}

// Lease hands out a healthy, exclusively-held link to a resident
// worker: pick an available endpoint, dial it under the dial deadline,
// health-check it with a ping/beat round trip, and return the live
// connection. Failures penalize the endpoint (per-endpoint backoff,
// quarantine after repeated failures) and the search moves on; when no
// endpoint can produce a link — all quarantined, or the lease wait
// exceeds its timeout — the error is a *ConnectError, the degradation
// signal. Context cancellation surfaces as the wrapped ctx error, never
// as a ConnectError: a canceled join must propagate, not degrade.
func (p *Pool) Lease(ctx context.Context) (*Lease, error) {
	start := time.Now()
	deadline := start.Add(p.cfg.LeaseTimeout)
	reconnected := false
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return nil, joinerr.Wrap("shard", "lease", err)
		}
		if time.Now().After(deadline) {
			p.mu.Lock()
			n := len(p.eps)
			p.mu.Unlock()
			return nil, &ConnectError{Endpoints: n, Err: fmt.Errorf("lease wait exceeded %v", p.cfg.LeaseTimeout)}
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, &ConnectError{Endpoints: len(p.eps), Err: errors.New("pool closed")}
		}
		ep := p.pickLocked()
		allDead := p.allQuarantinedLocked()
		n := len(p.eps)
		p.mu.Unlock()
		if allDead {
			err := lastErr
			if err == nil {
				err = errors.New("all endpoints quarantined")
			}
			return nil, &ConnectError{Endpoints: n, Err: fmt.Errorf("all endpoints quarantined: %w", err)}
		}
		if ep == nil {
			// Everything usable is busy or backing off: wait a slice
			// and retry, bounded by the lease timeout.
			select {
			case <-ctx.Done():
				return nil, joinerr.Wrap("shard", "lease", ctx.Err())
			case <-time.After(2 * time.Millisecond):
			}
			continue
		}
		conn, fw, fr, err := p.connect(ctx, ep)
		if err != nil {
			lastErr = err
			reconnected = true
			p.fail(ep)
			continue
		}
		p.met.netLeases.Inc()
		if reconnected {
			// The reconnect histogram measures how long the pool took
			// to route around failures and produce a healthy link.
			p.met.netReconnectH.Observe(time.Since(start).Seconds())
			p.rec.Instant("net-reconnect", trace.Attr{Key: "endpoint", Str: ep.addr})
		}
		return &Lease{pool: p, ep: ep, conn: conn, fw: fw, fr: fr}, nil
	}
}

// pickLocked claims the first available endpoint; caller holds p.mu.
func (p *Pool) pickLocked() *endpoint {
	now := time.Now()
	for _, ep := range p.eps {
		if ep.busy || ep.quarantined || now.Before(ep.retryAt) {
			continue
		}
		ep.busy = true
		return ep
	}
	return nil
}

// allQuarantinedLocked reports a fully dead fleet; caller holds p.mu.
func (p *Pool) allQuarantinedLocked() bool {
	for _, ep := range p.eps {
		if !ep.quarantined {
			return false
		}
	}
	return true
}

// connect dials one endpoint and health-checks it: a ping frame out, a
// beat frame back, both under the ping deadline. The frame reader and
// writer are returned with the connection so the lease reuses them —
// re-wrapping the conn would strand the reader's buffered bytes.
func (p *Pool) connect(ctx context.Context, ep *endpoint) (net.Conn, *FrameWriter, *FrameReader, error) {
	p.met.netDials.Inc()
	dctx, cancel := context.WithTimeout(ctx, p.cfg.DialTimeout)
	defer cancel()
	conn, err := p.cfg.Dial(dctx, ep.addr)
	if err != nil {
		p.met.netDialFailures.Inc()
		return nil, nil, nil, joinerr.WrapAs("shard", "dial", joinerr.KindShard, err)
	}
	fw := NewFrameWriter(conn)
	fr := NewFrameReader(conn)
	_ = conn.SetDeadline(time.Now().Add(pingTimeout))
	pingErr := fw.Write(FramePing, nil)
	if pingErr == nil {
		t, _, rerr := fr.Next()
		if rerr != nil {
			pingErr = rerr
		} else if t != FrameBeat {
			pingErr = protoErrf("ping reply frame type %d, want beat", t)
		}
	}
	if pingErr != nil {
		_ = conn.Close()
		p.met.netPingFailures.Inc()
		return nil, nil, nil, joinerr.WrapAs("shard", "ping", joinerr.KindShard, pingErr)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, fw, fr, nil
}

// fail records one failure against an endpoint: release it, gate its
// next dial behind its own retry delay, and quarantine it once the
// consecutive-failure count reaches the threshold.
func (p *Pool) fail(ep *endpoint) {
	p.mu.Lock()
	ep.busy = false
	ep.failures++
	ep.retryAt = time.Now().Add(retryDelay(ep.addr, ep.failures))
	quarantine := !ep.quarantined && ep.failures >= p.cfg.QuarantineAfter
	if quarantine {
		ep.quarantined = true
	}
	p.mu.Unlock()
	p.met.netEvictions.Inc()
	p.rec.Instant("net-evict", trace.Attr{Key: "endpoint", Str: ep.addr})
	if quarantine {
		p.met.netQuarantined.Inc()
		p.rec.Instant("net-quarantine", trace.Attr{Key: "endpoint", Str: ep.addr})
	}
}

// Lease is one exclusively-held, health-checked link to a resident
// worker. The connection and its frame reader/writer belong to the
// lease until Release.
type Lease struct {
	pool *Pool
	ep   *endpoint
	conn net.Conn
	fw   *FrameWriter
	fr   *FrameReader

	mu       sync.Mutex
	released bool // guarded by mu
}

// Release closes the connection and returns the endpoint: a clean
// attempt resets the endpoint's failure streak, a failed one penalizes
// it exactly like a connect failure (backoff, then quarantine) — the
// "returned or evicted, never respawned" pool contract. Idempotent.
func (l *Lease) Release(failed bool) {
	l.mu.Lock()
	done := l.released
	l.released = true
	l.mu.Unlock()
	if done {
		return
	}
	_ = l.conn.Close()
	if failed {
		l.pool.fail(l.ep)
		return
	}
	l.pool.mu.Lock()
	l.ep.busy = false
	l.ep.failures = 0
	l.ep.retryAt = time.Time{}
	l.pool.mu.Unlock()
}
