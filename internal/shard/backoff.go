package shard

import (
	"hash/fnv"
	"strconv"
	"sync"
	"time"
)

// Backoff is a retry-delay policy: capped exponential growth with
// deterministic, seeded jitter. The coordinator paces worker-process
// restarts with it (restartBackoff), and a Pool paces its redials of an
// endpoint through a KeyedBackoff over it.
//
// Determinism matters more here than entropy: the same (Seed, key,
// attempt) triple always yields the same delay, so a seeded chaos run
// or benchmark replays byte-identically. Jitter still decorrelates
// *different* keys (two shards, two endpoints) retrying after the same
// fault, which is all jitter is for.
//
// A nil *Backoff is valid everywhere and means "no delay".
type Backoff struct {
	// Base is the delay before the first retry (attempt 1).
	Base time.Duration
	// Cap bounds the grown delay; <= 0 means uncapped.
	Cap time.Duration
	// Factor is the per-attempt growth multiplier; values <= 1 mean
	// constant Base delay.
	Factor float64
	// Jitter in [0, 1] shrinks each delay by a deterministic fraction:
	// the delay is scaled by a factor drawn from [1-Jitter, 1]. Zero
	// disables jitter.
	Jitter float64
	// Seed selects the jitter stream; two policies with different seeds
	// jitter differently for the same key and attempt.
	Seed uint64
}

// Delay returns the pause before the given retry attempt (1-based) for
// the given key (a shard identity, an endpoint). A nil policy, a
// non-positive Base, or a non-positive attempt yields zero.
func (b *Backoff) Delay(key string, attempt int) time.Duration {
	if b == nil || b.Base <= 0 || attempt <= 0 {
		return 0
	}
	d := float64(b.Base)
	if b.Factor > 1 {
		for i := 1; i < attempt; i++ {
			d *= b.Factor
			if b.Cap > 0 && d >= float64(b.Cap) {
				break
			}
		}
	}
	if b.Cap > 0 && d > float64(b.Cap) {
		d = float64(b.Cap)
	}
	if j := b.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		// Deterministic unit draw in [0, 1) from (Seed, key, attempt).
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(b.Seed >> (8 * i))
		}
		h.Write(buf[:])
		h.Write([]byte(key))
		h.Write([]byte(strconv.Itoa(attempt)))
		u := float64(h.Sum64()>>11) / float64(1<<53)
		d *= 1 - j*u
	}
	return time.Duration(d)
}

// KeyedBackoff tracks consecutive failures per key and derives each
// key's next delay from the wrapped policy. It is the stateful
// companion to the stateless Backoff: callers that retry many
// independent identities (one shard, one network endpoint)
// record failures per key and reset a key on success, so a flapping
// endpoint backs off on its own schedule without slowing its healthy
// siblings. Safe for concurrent use; a nil *KeyedBackoff never delays.
type KeyedBackoff struct {
	mu       sync.Mutex
	policy   *Backoff
	attempts map[string]int
}

// NewKeyedBackoff wraps policy (which may itself be nil — a valid
// "no delay" policy whose attempt counts are still tracked).
func NewKeyedBackoff(policy *Backoff) *KeyedBackoff {
	return &KeyedBackoff{policy: policy, attempts: make(map[string]int)}
}

// Fail records one failure of key and returns the pause before its
// next attempt under the wrapped policy.
func (kb *KeyedBackoff) Fail(key string) time.Duration {
	if kb == nil {
		return 0
	}
	kb.mu.Lock()
	kb.attempts[key]++
	n := kb.attempts[key]
	kb.mu.Unlock()
	return kb.policy.Delay(key, n)
}

// Attempts returns the consecutive-failure count of key.
func (kb *KeyedBackoff) Attempts(key string) int {
	if kb == nil {
		return 0
	}
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return kb.attempts[key]
}

// Reset clears key's consecutive-failure count after a success.
func (kb *KeyedBackoff) Reset(key string) {
	if kb == nil {
		return
	}
	kb.mu.Lock()
	delete(kb.attempts, key)
	kb.mu.Unlock()
}

// Sleep pauses for Delay(key, attempt), waking early when cancel
// reports an error. It sleeps in short slices and polls cancel between
// them, so a canceled join stops waiting within one slice instead of
// serving out the full backoff. cancel may be nil (no cancellation).
// The cancel error, if any, is returned unwrapped.
func (b *Backoff) Sleep(key string, attempt int, cancel func() error) error {
	d := b.Delay(key, attempt)
	for d > 0 {
		if cancel != nil {
			if err := cancel(); err != nil {
				return err
			}
		}
		slice := d
		if slice > 5*time.Millisecond {
			slice = 5 * time.Millisecond
		}
		time.Sleep(slice)
		d -= slice
	}
	if cancel != nil {
		return cancel()
	}
	return nil
}
