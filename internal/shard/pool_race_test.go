package shard

import (
	"context"
	"sync"
	"testing"
	"time"

	"spatialjoin/internal/metrics"
)

// TestPoolConcurrentLeaseFailRelease hammers one pool from many
// goroutines mixing clean releases, failed releases and scrapes of its
// registry. Under `go test -race` this exercises the Pool.mu and
// Lease.released guarded-by contracts; in any mode it checks the
// endpoint accounting survives contention (every lease is returned, so
// the fleet never wedges).
func TestPoolConcurrentLeaseFailRelease(t *testing.T) {
	addrs := []string{servePingWorker(t), servePingWorker(t), servePingWorker(t)}
	reg := metrics.New()
	p, err := NewPool(PoolConfig{
		Endpoints:       addrs,
		LeaseTimeout:    5 * time.Second,
		QuarantineAfter: 1 << 20, // failures penalize but never kill the fleet
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	stop := make(chan struct{})
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = reg.Snapshot()
			}
		}
	}()

	const (
		goroutines = 6
		iters      = 10
	)
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l, lerr := p.Lease(context.Background())
				if lerr != nil {
					errc <- lerr
					return
				}
				// Mostly clean releases; an occasional failure exercises
				// the eviction/backoff path concurrently with leasing.
				failed := (g*iters+i)%7 == 0
				l.Release(failed)
				l.Release(failed) // idempotent under contention too
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scrape.Wait()
	close(errc)
	for lerr := range errc {
		t.Errorf("lease under contention: %v", lerr)
	}

	if c, want := poolCounts(reg), goroutines*iters; c[metNetLeases] != float64(want) {
		t.Fatalf("counts %v: want %d leases", c, want)
	}
	// The fleet must be fully returned: with every lease released, a
	// final lease succeeds once any backoff gates expire.
	deadline := time.Now().Add(2 * time.Second)
	for {
		l, lerr := p.Lease(context.Background())
		if lerr == nil {
			l.Release(false)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet wedged after hammer: %v", lerr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
