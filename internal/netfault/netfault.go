// Package netfault injects network faults into net.Conn traffic, the
// wire-level sibling of diskio's FaultPolicy: where that package makes
// a simulated disk lie (transient errors, torn writes, bit flips,
// latency), this one makes a connection lie — dials that fail, reads
// and writes that die mid-frame with the peer reset, writes that
// persist only a prefix before the reset, and latency spikes.
//
// Faults come in two flavors sharing one Policy:
//
//   - scripted: DropDialAt / ResetReadAt / ResetWriteAt fire exactly
//     once at a deterministic operation or byte count — a fault the
//     wire injects, where the shard coordinator's KillSpec is one its
//     supervision loop carries out by closing the link. Chaos tests use
//     these to tear a connection at a chosen protocol instant (mid-dial,
//     mid-part-ship, mid-pairs) and then let the retry succeed.
//   - seeded random: per-operation probabilities drawn from a seeded
//     generator, bounded by MaxFaults so a bounded retry loop always
//     eventually wins.
//
// A Policy wraps either a single net.Conn (Conn) or a dial function
// (WrapDial); counters are cumulative across every connection the
// policy touched, which is what makes the scripted byte thresholds
// land mid-frame regardless of how traffic is split across frames.
package netfault

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// FaultError is the error surfaced for every injected fault. It
// deliberately looks like a peer failure, not like an injection: the
// code under test must classify and recover from it exactly as it
// would from a real reset.
type FaultError struct {
	Op string // "dial", "read" or "write"
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("netfault: injected %s failure (connection reset)", e.Op)
}

// Timeout implements net.Error (never a timeout — resets are hard
// failures).
func (e *FaultError) Timeout() bool { return false }

// Temporary implements the legacy net.Error method: a reset is
// retryable at connection granularity.
func (e *FaultError) Temporary() bool { return true }

// Config parameterizes a Policy. Scripted thresholds are 1-based and
// cumulative across all connections of the policy; zero disables each.
type Config struct {
	// Seed drives the random-rate stream; irrelevant when only
	// scripted faults are set.
	Seed int64

	// DropDialAt fails the Nth dial through WrapDial.
	DropDialAt int
	// ResetReadAt tears connections on the read side once N cumulative
	// bytes have been delivered: the read that crosses the threshold
	// returns a prefix, the next returns the reset. Mid-frame by
	// construction when N lands inside a frame.
	ResetReadAt int64
	// ResetWriteAt is the write-side twin: the crossing write persists
	// only the bytes below the threshold (a partial write), then fails.
	ResetWriteAt int64

	// DialDropRate / ResetReadRate / ResetWriteRate / PartialWriteRate
	// are per-operation probabilities in [0, 1].
	DialDropRate     float64
	ResetReadRate    float64
	ResetWriteRate   float64
	PartialWriteRate float64
	// LatencyRate delays an operation by Latency before it proceeds.
	LatencyRate float64
	Latency     time.Duration

	// MaxFaults bounds the total number of injected random faults
	// (latency spikes excluded); <= 0 means 4. Scripted faults fire
	// once each regardless. The bound is what guarantees a
	// reconnecting caller eventually gets a clean link.
	MaxFaults int
}

// Stats counts the injected faults.
type Stats struct {
	DialsDropped  int64
	ReadResets    int64
	WriteResets   int64
	PartialWrites int64
	LatencySpikes int64
}

// Total sums the hard faults (latency spikes excluded).
func (s Stats) Total() int64 {
	return s.DialsDropped + s.ReadResets + s.WriteResets + s.PartialWrites
}

// Policy decides, per network operation, whether to inject a fault.
// Safe for concurrent use by many connections.
type Policy struct {
	mu  sync.Mutex
	cfg Config
	rng *rand.Rand

	dials        int   // dials attempted
	bytesRead    int64 // cumulative bytes delivered to readers
	bytesWritten int64 // cumulative bytes accepted from writers
	readFired    bool  // scripted read reset spent (one-shot)
	writeFired   bool  // scripted write reset spent (one-shot)
	faults       int   // random faults injected so far

	stats Stats
}

// New builds a policy.
func New(cfg Config) *Policy {
	if cfg.MaxFaults <= 0 {
		cfg.MaxFaults = 4
	}
	return &Policy{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats snapshots the injected-fault counters.
func (p *Policy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// budget reports whether another random fault may fire; callers hold
// p.mu.
func (p *Policy) budget() bool { return p.faults < p.cfg.MaxFaults }

// DialFunc matches the dialer shape the shard pool accepts.
type DialFunc func(ctx context.Context, addr string) (net.Conn, error)

// WrapDial returns a dialer that consults the policy before delegating
// and wraps every successful connection in the fault conn. A nil inner
// dialer means a plain TCP net.Dialer.
func (p *Policy) WrapDial(inner DialFunc) DialFunc {
	if inner == nil {
		inner = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	return func(ctx context.Context, addr string) (net.Conn, error) {
		p.mu.Lock()
		p.dials++
		drop := p.dials == p.cfg.DropDialAt
		if !drop && p.cfg.DialDropRate > 0 && p.budget() && p.rng.Float64() < p.cfg.DialDropRate {
			drop = true
			p.faults++
		}
		if drop {
			p.stats.DialsDropped++
		}
		p.mu.Unlock()
		if drop {
			return nil, &FaultError{Op: "dial"}
		}
		c, err := inner(ctx, addr)
		if err != nil {
			return nil, err
		}
		return p.Conn(c), nil
	}
}

// Conn wraps one established connection in the policy's fault
// injection.
func (p *Policy) Conn(c net.Conn) net.Conn {
	return &faultConn{Conn: c, p: p}
}

// faultConn is a net.Conn whose Read and Write consult the policy. A
// fired reset closes the underlying connection, so the peer observes a
// real teardown, and latches the conn dead — every subsequent
// operation fails like a closed socket would.
type faultConn struct {
	net.Conn
	p    *Policy
	mu   sync.Mutex
	dead bool
}

// verdict is the policy's decision for one I/O operation.
type verdict struct {
	reset   bool
	partial int // bytes to let through before the reset (write side)
	sleep   time.Duration
}

// onRead decides the fate of a read about to deliver up to n bytes.
func (p *Policy) onRead(n int) verdict {
	p.mu.Lock()
	defer p.mu.Unlock()
	var v verdict
	if at := p.cfg.ResetReadAt; at > 0 && !p.readFired {
		if p.bytesRead >= at {
			// Exactly the threshold bytes were delivered; this read is
			// the reset. One-shot: the retried conversation must not
			// trip it again.
			p.readFired = true
			p.stats.ReadResets++
			v.reset = true
			return v
		}
		if p.bytesRead+int64(n) > at {
			// Deliver only the bytes below the threshold; the reader
			// comes back for more and meets the reset. Tearing exactly
			// at the byte count is what lands the failure mid-frame.
			v.partial = int(at - p.bytesRead)
			return v
		}
	}
	if p.cfg.ResetReadRate > 0 && p.budget() && p.rng.Float64() < p.cfg.ResetReadRate {
		p.faults++
		p.stats.ReadResets++
		v.reset = true
		return v
	}
	if p.cfg.LatencyRate > 0 && p.rng.Float64() < p.cfg.LatencyRate {
		p.stats.LatencySpikes++
		v.sleep = p.cfg.Latency
	}
	return v
}

// onWrite decides the fate of a write of n bytes.
func (p *Policy) onWrite(n int) verdict {
	p.mu.Lock()
	defer p.mu.Unlock()
	var v verdict
	if at := p.cfg.ResetWriteAt; at > 0 && !p.writeFired {
		if p.bytesWritten >= at {
			p.writeFired = true
			p.stats.WriteResets++
			v.reset = true
			return v
		}
		if p.bytesWritten+int64(n) > at {
			// Persist only the prefix below the threshold; the conn
			// dies with that partial frame on the wire. One-shot.
			v.partial = int(at - p.bytesWritten)
			p.writeFired = true
			p.stats.PartialWrites++
			return v
		}
	}
	if p.cfg.ResetWriteRate > 0 && p.budget() && p.rng.Float64() < p.cfg.ResetWriteRate {
		p.faults++
		p.stats.WriteResets++
		v.reset = true
		return v
	}
	if p.cfg.PartialWriteRate > 0 && n > 1 && p.budget() && p.rng.Float64() < p.cfg.PartialWriteRate {
		p.faults++
		p.stats.PartialWrites++
		v.partial = 1 + p.rng.Intn(n-1)
		return v
	}
	if p.cfg.LatencyRate > 0 && p.rng.Float64() < p.cfg.LatencyRate {
		p.stats.LatencySpikes++
		v.sleep = p.cfg.Latency
	}
	return v
}

// kill closes the underlying connection and latches the conn dead.
func (c *faultConn) kill() {
	c.mu.Lock()
	already := c.dead
	c.dead = true
	c.mu.Unlock()
	if !already {
		_ = c.Conn.Close()
	}
}

// isDead reports whether a reset already fired on this conn.
func (c *faultConn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// Read implements net.Conn.
func (c *faultConn) Read(b []byte) (int, error) {
	if c.isDead() {
		return 0, &FaultError{Op: "read"}
	}
	v := c.p.onRead(len(b))
	if v.reset {
		c.kill()
		return 0, &FaultError{Op: "read"}
	}
	if v.sleep > 0 {
		time.Sleep(v.sleep)
	}
	if v.partial > 0 && v.partial < len(b) {
		b = b[:v.partial]
	}
	n, err := c.Conn.Read(b)
	c.p.mu.Lock()
	c.p.bytesRead += int64(n)
	c.p.mu.Unlock()
	return n, err
}

// Write implements net.Conn.
func (c *faultConn) Write(b []byte) (int, error) {
	if c.isDead() {
		return 0, &FaultError{Op: "write"}
	}
	v := c.p.onWrite(len(b))
	if v.reset {
		c.kill()
		return 0, &FaultError{Op: "write"}
	}
	if v.sleep > 0 {
		time.Sleep(v.sleep)
	}
	if v.partial > 0 && v.partial < len(b) {
		n, _ := c.Conn.Write(b[:v.partial])
		c.p.mu.Lock()
		c.p.bytesWritten += int64(n)
		c.p.mu.Unlock()
		c.kill()
		return n, &FaultError{Op: "write"}
	}
	n, err := c.Conn.Write(b)
	c.p.mu.Lock()
	c.p.bytesWritten += int64(n)
	c.p.mu.Unlock()
	return n, err
}
