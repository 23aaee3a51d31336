package shard

import (
	"hash/fnv"
	"strconv"
	"time"
)

// retryDelay is the fleet's one retry policy: the pause before retry
// attempt (1-based) of key — "shard-<id>" for a worker restart, the
// endpoint address for a pool redial. The delay starts at 5 ms, doubles
// per attempt up to a 250 ms cap, and is then shrunk by a jitter factor
// in [0.5, 1] drawn from (seed 1, key, attempt).
//
// Determinism matters more here than entropy: the same key and attempt
// always yield the same delay, so a seeded chaos run or benchmark
// replays byte-identically. Jitter still decorrelates different keys
// (two shards, two endpoints) retrying after the same fault, which is
// all jitter is for.
func retryDelay(key string, attempt int) time.Duration {
	const limit = float64(250 * time.Millisecond)
	d := float64(5 * time.Millisecond)
	for i := 1; i < attempt && d < limit; i++ {
		d *= 2
	}
	d = min(d, limit)
	// Deterministic unit draw in [0, 1) from (seed, key, attempt); the
	// seed is 1 as eight little-endian bytes.
	h := fnv.New64a()
	h.Write([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	h.Write([]byte(key))
	h.Write([]byte(strconv.Itoa(attempt)))
	u := float64(h.Sum64()>>11) / float64(1<<53)
	return time.Duration(d * (1 - 0.5*u))
}

// sleepRetry pauses for retryDelay(key, attempt), waking early when
// cancel reports an error. It sleeps in 5 ms slices and polls cancel
// between them, so a canceled join stops waiting within one slice
// instead of serving out the full delay. The cancel error, if any, is
// returned unwrapped.
func sleepRetry(key string, attempt int, cancel func() error) error {
	for d := retryDelay(key, attempt); d > 0; d -= 5 * time.Millisecond {
		if err := cancel(); err != nil {
			return err
		}
		time.Sleep(min(d, 5*time.Millisecond))
	}
	return cancel()
}
