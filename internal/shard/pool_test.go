package shard

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/metrics"
)

// ResidentWorkers serves n in-process resident workers on loopback
// listeners and returns their addresses; the listeners close with the
// test. In-process workers give the race detector both sides of the
// protocol. It lives in a test file, so it exists only in test builds,
// and is exported for the external tests of tcp_test.go.
func ResidentWorkers(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ln.Close() })
		go func() { _ = ServeWorker(ln) }()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// servePingWorker serves one resident worker and returns its address.
func servePingWorker(t *testing.T) string { return ResidentWorkers(t, 1)[0] }

// poolCounts reads a pool's lifecycle counts from its registry, their
// one record, by metric name; a histogram reads as its observation count.
func poolCounts(reg *metrics.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, p := range reg.Snapshot().Points {
		if p.Hist != nil {
			out[p.Name] = float64(p.Hist.Count)
		} else {
			out[p.Name] = p.Value
		}
	}
	return out
}

func TestPoolLeaseHealthCheckAndRelease(t *testing.T) {
	addr := servePingWorker(t)
	reg := metrics.New()
	p, err := NewPool(PoolConfig{Endpoints: []string{addr}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	l, err := p.Lease(context.Background())
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	if l.ep.addr != addr {
		t.Fatalf("lease addr %q, want %q", l.ep.addr, addr)
	}
	// The health check already ran; the link must carry a fresh job
	// conversation: ping again by hand and expect a beat on the SAME
	// reader the lease carries (buffered bytes stay with the lease).
	if err := l.fw.Write(FramePing, nil); err != nil {
		t.Fatal(err)
	}
	ty, _, err := l.fr.Next()
	if err != nil || ty != FrameBeat {
		t.Fatalf("manual ping got (%d, %v), want beat", ty, err)
	}
	l.Release(false)
	l.Release(false) // idempotent

	// A clean release returns the endpoint: the next lease succeeds.
	l2, err := p.Lease(context.Background())
	if err != nil {
		t.Fatalf("second Lease: %v", err)
	}
	l2.Release(false)

	c := poolCounts(reg)
	if c[metNetLeases] != 2 || c[metNetDials] != 2 || c[metNetEvictions] != 0 || c[metNetReconnectSeconds] != 0 {
		t.Fatalf("counts %v, want 2 leases, 2 dials, no evictions", c)
	}
}

func TestPoolQuarantinesDeadEndpoint(t *testing.T) {
	// An address that refuses connections: bind, learn the port, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()

	reg := metrics.New()
	p, err := NewPool(PoolConfig{
		Endpoints:       []string{dead},
		DialTimeout:     200 * time.Millisecond,
		QuarantineAfter: 3,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	_, err = p.Lease(context.Background())
	var ce *ConnectError
	if !errors.As(err, &ce) {
		t.Fatalf("dead fleet: err %v, want ConnectError", err)
	}
	if ce.Endpoints != 1 {
		t.Fatalf("ConnectError.Endpoints=%d, want 1", ce.Endpoints)
	}
	c := poolCounts(reg)
	if c[metNetQuarantined] != 1 {
		t.Fatalf("quarantined %v, want 1", c[metNetQuarantined])
	}
	if c[metNetEvictions] < 3 || c[metNetDialFailures] < 3 {
		t.Fatalf("counts %v: want >=3 evictions and dial failures before quarantine", c)
	}
	if c[metNetLeases] != 0 {
		t.Fatalf("leases %v from a dead fleet", c[metNetLeases])
	}
}

func TestPoolReconnectRoutesAroundFailure(t *testing.T) {
	// First endpoint dead, second alive: the lease must succeed after
	// penalizing the dead one, and count as a reconnect.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()
	alive := servePingWorker(t)

	reg := metrics.New()
	p, err := NewPool(PoolConfig{
		Endpoints:   []string{dead, alive},
		DialTimeout: 200 * time.Millisecond,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	l, err := p.Lease(context.Background())
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	if l.ep.addr != alive {
		t.Fatalf("leased %q, want the live endpoint %q", l.ep.addr, alive)
	}
	l.Release(false)
	if h := reg.Snapshot().Hist(metNetReconnectSeconds); h.Count != 1 || h.Sum <= 0 {
		t.Fatalf("reconnect histogram %+v: want exactly one reconnect with latency recorded", h)
	}
	if c := poolCounts(reg); c[metNetEvictions] < 1 {
		t.Fatalf("counts %v: the dead endpoint was never penalized", c)
	}
}

func TestPoolLeaseCancelIsNotConnectError(t *testing.T) {
	addr := servePingWorker(t)
	p, err := NewPool(PoolConfig{Endpoints: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = p.Lease(ctx)
	var ce *ConnectError
	if errors.As(err, &ce) {
		t.Fatalf("canceled lease surfaced ConnectError %v: cancellation must propagate, not degrade", err)
	}
	if joinerr.KindOf(err) != joinerr.KindCanceled {
		t.Fatalf("canceled lease kind %v, want KindCanceled", joinerr.KindOf(err))
	}
}

func TestPoolLeaseTimeoutWhenBusy(t *testing.T) {
	addr := servePingWorker(t)
	p, err := NewPool(PoolConfig{
		Endpoints:    []string{addr},
		LeaseTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	l, err := p.Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release(false)
	// The only endpoint is held: a second lease must time out into the
	// degradation signal instead of waiting forever.
	_, err = p.Lease(context.Background())
	var ce *ConnectError
	if !errors.As(err, &ce) {
		t.Fatalf("busy fleet past the lease timeout: err %v, want ConnectError", err)
	}
}

func TestPoolClosedLease(t *testing.T) {
	addr := servePingWorker(t)
	p, err := NewPool(PoolConfig{Endpoints: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	_, err = p.Lease(context.Background())
	var ce *ConnectError
	if !errors.As(err, &ce) {
		t.Fatalf("closed pool: err %v, want ConnectError", err)
	}
}

func TestPoolFailedReleasePenalizes(t *testing.T) {
	addr := servePingWorker(t)
	reg := metrics.New()
	p, err := NewPool(PoolConfig{
		Endpoints:       []string{addr},
		QuarantineAfter: 2,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 2; i++ {
		l, lerr := p.Lease(context.Background())
		if lerr != nil {
			t.Fatalf("lease %d: %v", i, lerr)
		}
		l.Release(true)
		// Wait out the endpoint's backoff gate so the next lease picks
		// it again rather than timing out.
		time.Sleep(5 * time.Millisecond)
	}
	if c := poolCounts(reg); c[metNetEvictions] != 2 || c[metNetQuarantined] != 1 {
		t.Fatalf("counts %v: want 2 evictions quarantining the endpoint", c)
	}
	if _, err := p.Lease(context.Background()); err == nil {
		t.Fatal("quarantined fleet still leases")
	}
}

// TestPoolFailureStreakIsPerEndpoint proves each endpoint keeps its own
// failure streak: one endpoint's failures gate and finally quarantine
// it alone, never delaying its healthy sibling, and a clean release
// resets the streak, so only consecutive failures quarantine.
func TestPoolFailureStreakIsPerEndpoint(t *testing.T) {
	flaky, healthy := servePingWorker(t), servePingWorker(t)
	p, err := NewPool(PoolConfig{Endpoints: []string{flaky, healthy}, QuarantineAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	state := func(i int) endpoint {
		p.mu.Lock()
		defer p.mu.Unlock()
		return *p.eps[i]
	}
	// One round: wait out the flaky endpoint's gate so the first lease
	// takes it and the second its sibling, then release the flaky one
	// as failed or clean and the healthy one clean.
	round := func(flakyFails bool) {
		t.Helper()
		time.Sleep(time.Until(state(0).retryAt))
		la, err := p.Lease(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		lb, err := p.Lease(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if la.ep.addr != flaky || lb.ep.addr != healthy {
			t.Fatalf("leased %s and %s, want %s then %s", la.ep.addr, lb.ep.addr, flaky, healthy)
		}
		la.Release(flakyFails)
		lb.Release(false)
		if h := state(1); h.failures != 0 || !h.retryAt.IsZero() || h.quarantined {
			t.Fatalf("healthy sibling %+v after the flaky one's release: want no streak, no gate", h)
		}
	}
	for i, c := range []struct {
		fails       bool
		failures    int
		quarantined bool
	}{
		{true, 1, false},
		{false, 0, false}, // a clean release resets the streak
		{true, 1, false},  // so this failure is the first again
		{true, 2, true},
	} {
		round(c.fails)
		f := state(0)
		if gated := !f.retryAt.IsZero(); f.failures != c.failures || f.quarantined != c.quarantined || gated != c.fails {
			t.Fatalf("round %d: flaky endpoint %+v, want %d failures, quarantined %v", i, f, c.failures, c.quarantined)
		}
	}
	// The quarantined endpoint is skipped; its sibling still leases.
	l, err := p.Lease(context.Background())
	if err != nil || l.ep.addr != healthy {
		t.Fatalf("lease after quarantine: %v, want the healthy endpoint", err)
	}
	l.Release(false)
}

func TestNewPoolRequiresEndpoints(t *testing.T) {
	if _, err := NewPool(PoolConfig{}); err == nil {
		t.Fatal("empty endpoint list accepted")
	}
}
