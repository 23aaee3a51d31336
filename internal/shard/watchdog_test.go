package shard

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/trace"
)

// silentWorker answers the pool's health check on c and then reads the
// whole job without ever sending another frame, until the coordinator
// closes the connection.
func silentWorker(c net.Conn) {
	defer c.Close()
	fr, fw := NewFrameReader(c), NewFrameWriter(c)
	for {
		t, _, err := fr.Next()
		if err != nil {
			return
		}
		if t == FramePing && fw.Write(FrameBeat, nil) != nil {
			return
		}
	}
}

// TestStallWatchdogKillsSilentWorker: a worker that takes its job and
// then falls silent is killed by the supervision watchdog once no frame
// arrived for stallTimeout, counted as one kill, and retried on a live
// worker, and the join still emits the serial sequence. The first dial
// reaches the silent worker; later dials reach real conversations.
func TestStallWatchdogKillsSilentWorker(t *testing.T) {
	defer func(d time.Duration) { stallTimeout = d }(stallTimeout)
	stallTimeout = time.Second

	var dials atomic.Int32
	dial := func(context.Context, string) (net.Conn, error) {
		coord, worker := net.Pipe()
		if dials.Add(1) == 1 {
			go silentWorker(worker)
		} else {
			go func() {
				defer worker.Close()
				_ = runConversation(NewFrameReader(worker), NewFrameWriter(worker))
			}()
		}
		return coord, nil
	}
	pool, err := NewPool(PoolConfig{Endpoints: []string{"w0", "w1"}, Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const memory = 32 << 10
	r, s := datagen.Uniform(101, 1500, 0.004), datagen.Uniform(202, 1500, 0.004)
	want, _, err := core.Collect(r, s, core.Config{Memory: memory, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	var got []geom.Pair
	res, err := Join(r, s, Config{Shards: 2, Memory: memory, Pool: pool, Trace: rec},
		func(p geom.Pair) { got = append(got, p) })
	if err != nil {
		t.Fatalf("join did not recover from the stalled worker: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d is %+v, want %+v — emission order diverged", i, got[i], want[i])
		}
	}
	if res.Stats.Kills != 1 || res.Stats.Restarts != 1 {
		t.Fatalf("stats %+v: a stalled worker must count as one kill and one restart", res.Stats)
	}
	kills := 0
	for _, sp := range rec.Spans() {
		if sp.Instant && sp.Name == "shard-kill" {
			kills++
		}
	}
	if kills != 1 {
		t.Fatalf("trace records %d shard-kill instants, want 1", kills)
	}
}
