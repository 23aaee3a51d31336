package shard

import (
	"errors"
	"testing"
	"time"
)

// TestBackoffGrowthAndCap proves the delay grows by Factor per attempt
// and never exceeds Cap.
func TestBackoffGrowthAndCap(t *testing.T) {
	b := &Backoff{Base: time.Millisecond, Cap: 8 * time.Millisecond, Factor: 2}
	want := []time.Duration{
		1 * time.Millisecond,
		2 * time.Millisecond,
		4 * time.Millisecond,
		8 * time.Millisecond,
		8 * time.Millisecond, // capped
		8 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.Delay("f", i+1); got != w {
			t.Errorf("Delay(attempt %d) = %v, want %v", i+1, got, w)
		}
	}
	if got := b.Delay("f", 0); got != 0 {
		t.Errorf("Delay(attempt 0) = %v, want 0", got)
	}
	var nilB *Backoff
	if got := nilB.Delay("f", 3); got != 0 {
		t.Errorf("nil Backoff Delay = %v, want 0", got)
	}
}

// TestBackoffJitterDeterminism proves the jittered delay is a pure
// function of (Seed, key, attempt): same inputs, same delay; different
// keys or seeds, (almost surely) different delays — and always within
// [ (1-Jitter)*grown, grown ].
func TestBackoffJitterDeterminism(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Cap: time.Second, Factor: 2, Jitter: 0.5, Seed: 42}
	for attempt := 1; attempt <= 5; attempt++ {
		d1 := b.Delay("file-a", attempt)
		d2 := b.Delay("file-a", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: delay not deterministic: %v vs %v", attempt, d1, d2)
		}
		grown := b.Base * time.Duration(1<<(attempt-1))
		if grown > b.Cap {
			grown = b.Cap
		}
		if d1 > grown || d1 < grown/2 {
			t.Errorf("attempt %d: jittered delay %v outside [%v, %v]", attempt, d1, grown/2, grown)
		}
	}
	if b.Delay("file-a", 1) == b.Delay("file-b", 1) {
		t.Error("jitter does not decorrelate distinct keys")
	}
	other := &Backoff{Base: b.Base, Cap: b.Cap, Factor: b.Factor, Jitter: b.Jitter, Seed: 43}
	if b.Delay("file-a", 1) == other.Delay("file-a", 1) {
		t.Error("jitter does not depend on the seed")
	}
}

// TestBackoffSleepCancel proves a sleep wakes early when the cancel
// hook fires: canceling during a long backoff must not serve out the
// full delay.
func TestBackoffSleepCancel(t *testing.T) {
	b := &Backoff{Base: 10 * time.Second, Factor: 1}
	canceled := errors.New("canceled mid-backoff")
	calls := 0
	cancel := func() error {
		calls++
		if calls > 2 {
			return canceled
		}
		return nil
	}
	start := time.Now()
	err := b.Sleep("f", 1, cancel)
	if !errors.Is(err, canceled) {
		t.Fatalf("Sleep returned %v, want the cancel error", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("Sleep took %v after cancellation; want early wake", el)
	}
}

// TestBackoffSleepCompletes proves an uncanceled sleep serves roughly
// the configured delay and returns nil.
func TestBackoffSleepCompletes(t *testing.T) {
	b := &Backoff{Base: 5 * time.Millisecond, Factor: 1}
	start := time.Now()
	if err := b.Sleep("f", 1, nil); err != nil {
		t.Fatalf("Sleep = %v, want nil", err)
	}
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("Sleep returned after %v, want >= ~5ms", el)
	}
}

// TestKeyedBackoffIndependentKeys proves the per-key failure counters
// grow and reset independently: one flapping key climbs the policy's
// delay ladder while a healthy sibling stays at zero.
func TestKeyedBackoffIndependentKeys(t *testing.T) {
	kb := NewKeyedBackoff(&Backoff{Base: time.Millisecond, Cap: 8 * time.Millisecond, Factor: 2})
	if d := kb.Fail("a"); d != time.Millisecond {
		t.Fatalf("first failure of a: delay %v, want 1ms", d)
	}
	if d := kb.Fail("a"); d != 2*time.Millisecond {
		t.Fatalf("second failure of a: delay %v, want 2ms", d)
	}
	if got := kb.Attempts("a"); got != 2 {
		t.Fatalf("Attempts(a) = %d, want 2", got)
	}
	if got := kb.Attempts("b"); got != 0 {
		t.Fatalf("Attempts(b) = %d, want 0 (keys must be independent)", got)
	}
	if d := kb.Fail("b"); d != time.Millisecond {
		t.Fatalf("first failure of b: delay %v, want 1ms", d)
	}
	kb.Reset("a")
	if got := kb.Attempts("a"); got != 0 {
		t.Fatalf("Attempts(a) after Reset = %d, want 0", got)
	}
	if d := kb.Fail("a"); d != time.Millisecond {
		t.Fatalf("failure of a after Reset: delay %v, want the base again", d)
	}
}

// TestKeyedBackoffNilSafety: a nil tracker and a tracker over a nil
// policy must both be usable and delay-free.
func TestKeyedBackoffNilSafety(t *testing.T) {
	var nilKB *KeyedBackoff
	if d := nilKB.Fail("x"); d != 0 {
		t.Fatalf("nil KeyedBackoff Fail = %v, want 0", d)
	}
	nilKB.Reset("x")
	if got := nilKB.Attempts("x"); got != 0 {
		t.Fatalf("nil KeyedBackoff Attempts = %d, want 0", got)
	}
	kb := NewKeyedBackoff(nil)
	if d := kb.Fail("x"); d != 0 {
		t.Fatalf("nil-policy Fail = %v, want 0", d)
	}
	if got := kb.Attempts("x"); got != 1 {
		t.Fatalf("nil-policy Attempts = %d, want 1 (counting still works)", got)
	}
}
