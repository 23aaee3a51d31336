package shard

import (
	"errors"
	"net"
	"testing"
	"time"
)

// grownDelay is the policy's delay before jitter: 5 ms doubling per
// attempt up to the 250 ms cap. The jittered delay lies in
// [grownDelay/2, grownDelay].
func grownDelay(attempt int) time.Duration {
	d := 5 * time.Millisecond
	for i := 1; i < attempt && d < 250*time.Millisecond; i++ {
		d *= 2
	}
	return min(d, 250*time.Millisecond)
}

// TestBackoffGrowthAndCap proves the delay doubles per attempt from the
// 5 ms base and never exceeds the 250 ms cap, however many attempts.
func TestBackoffGrowthAndCap(t *testing.T) {
	want := []time.Duration{5, 10, 20, 40, 80, 160, 250, 250, 250}
	for i, w := range want {
		if g := grownDelay(i + 1); g != w*time.Millisecond {
			t.Fatalf("grown delay at attempt %d = %v, want %v", i+1, g, w*time.Millisecond)
		}
	}
	for _, key := range []string{"shard-0", "shard-7", "127.0.0.1:9400"} {
		for attempt := 1; attempt <= 12; attempt++ {
			g := grownDelay(attempt)
			if d := retryDelay(key, attempt); d > g || d < g/2 {
				t.Errorf("retryDelay(%q, %d) = %v outside [%v, %v]", key, attempt, d, g/2, g)
			}
		}
		for _, attempt := range []int{64, 1000, 1 << 30} {
			if d := retryDelay(key, attempt); d > 250*time.Millisecond || d < 125*time.Millisecond {
				t.Errorf("retryDelay(%q, %d) = %v, want within the capped [125ms, 250ms]", key, attempt, d)
			}
		}
	}
}

// TestBackoffJitterDeterminism proves the jittered delay is a pure
// function of (key, attempt): same inputs, same delay; different keys,
// different delays at the same attempt, which is what decorrelates two
// shards or endpoints retrying after one fault.
func TestBackoffJitterDeterminism(t *testing.T) {
	keys := []string{"shard-0", "shard-1", "shard-2", "127.0.0.1:9400", "127.0.0.1:9401"}
	for attempt := 1; attempt <= 8; attempt++ {
		seen := make(map[time.Duration]string)
		for _, key := range keys {
			d := retryDelay(key, attempt)
			if again := retryDelay(key, attempt); again != d {
				t.Fatalf("retryDelay(%q, %d) not deterministic: %v vs %v", key, attempt, d, again)
			}
			if other, dup := seen[d]; dup {
				t.Errorf("attempt %d: keys %q and %q share delay %v; jitter does not decorrelate them", attempt, other, key, d)
			}
			seen[d] = key
		}
	}
}

// TestRetryDelayPinned pins the retry policy to the delays the former
// configurable policy produced at its one production setting (5 ms base,
// factor 2, 250 ms cap, jitter 0.5, seed 1): restart pacing and pool
// redials, and so every seeded chaos replay, keep their timing. Attempts
// 7 and 8 reach the cap.
func TestRetryDelayPinned(t *testing.T) {
	cases := []struct {
		key  string
		want [8]time.Duration
	}{
		{"shard-0", [8]time.Duration{2514589, 5029177, 10058355, 20116706, 40233415, 80466817, 125729409, 125729506}},
		{"shard-1", [8]time.Duration{2514723, 5029447, 10058893, 20117791, 40235580, 80471175, 125736204, 125736107}},
		{"shard-2", [8]time.Duration{2514857, 5029716, 10059432, 20118857, 40237716, 80475438, 125742880, 125742828}},
		{"shard-3", [8]time.Duration{2514972, 5029945, 10059890, 20119779, 40239557, 80479110, 125748602, 125748595}},
		{"127.0.0.1:9400", [8]time.Duration{4073445, 8146890, 16293780, 32587568, 65175135, 130350266, 203672283, 203672216}},
	}
	for _, c := range cases {
		for i, want := range c.want {
			if got := retryDelay(c.key, i+1); got != want {
				t.Errorf("retryDelay(%q, %d) = %d, want %d", c.key, i+1, got, want)
			}
		}
	}
}

// TestBackoffSleepCancel proves a sleep wakes early when the cancel
// hook fires: canceling during a long backoff must not serve out the
// full delay, only the slices before the hook fired.
func TestBackoffSleepCancel(t *testing.T) {
	canceled := errors.New("canceled mid-backoff")
	calls := 0
	cancel := func() error {
		calls++
		if calls > 2 {
			return canceled
		}
		return nil
	}
	// About 126 ms: some 26 slices uncanceled.
	if err := sleepRetry("shard-0", 8, cancel); !errors.Is(err, canceled) {
		t.Fatalf("sleepRetry returned %v, want the cancel error", err)
	}
	if calls != 3 {
		t.Fatalf("cancel polled %d times; want the sleep to end at the first error (3)", calls)
	}
}

// TestBackoffSleepCompletes proves an uncanceled sleep serves at least
// the policy's delay and returns nil.
func TestBackoffSleepCompletes(t *testing.T) {
	start := time.Now()
	if err := sleepRetry("shard-0", 1, func() error { return nil }); err != nil {
		t.Fatalf("sleepRetry = %v, want nil", err)
	}
	if el, want := time.Since(start), retryDelay("shard-0", 1); el < want {
		t.Fatalf("sleepRetry returned after %v, want >= %v", el, want)
	}
}

// failGate records one failure against ep and returns the retry delay it
// gated the endpoint behind, to within the clock reads around the call.
func failGate(t *testing.T, p *Pool, ep *endpoint) (lo, hi time.Duration) {
	t.Helper()
	before := time.Now()
	p.fail(ep)
	after := time.Now()
	p.mu.Lock()
	retryAt := ep.retryAt
	p.mu.Unlock()
	return retryAt.Sub(after), retryAt.Sub(before)
}

// releaseClean hands ep back through a clean lease release, the path that
// ends its failure streak.
func releaseClean(p *Pool, ep *endpoint) {
	conn, peer := net.Pipe()
	defer peer.Close()
	p.mu.Lock()
	ep.busy = true
	p.mu.Unlock()
	(&Lease{pool: p, ep: ep, conn: conn}).Release(false)
}

// TestKeyedBackoffIndependentKeys proves each endpoint keeps its own
// failure streak, keyed by its address: one flapping endpoint climbs the
// policy's delay ladder while its healthy sibling stays ungated, and a
// clean release starts the flapping one over at the first rung.
func TestKeyedBackoffIndependentKeys(t *testing.T) {
	p, err := NewPool(PoolConfig{Endpoints: []string{"10.0.0.1:1", "10.0.0.2:1"}, QuarantineAfter: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a, b := p.eps[0], p.eps[1]
	wantGate := func(ep *endpoint, attempt int) {
		t.Helper()
		want := retryDelay(ep.addr, attempt)
		if lo, hi := failGate(t, p, ep); want < lo || want > hi {
			t.Fatalf("failure %d of %s: gate in [%v, %v], want retryDelay %v", attempt, ep.addr, lo, hi, want)
		}
		if ep.failures != attempt {
			t.Fatalf("%s: %d failures, want %d", ep.addr, ep.failures, attempt)
		}
	}
	wantGate(a, 1)
	wantGate(a, 2)
	if b.failures != 0 || !b.retryAt.IsZero() {
		t.Fatalf("sibling %+v after a's failures: want no streak and no gate (keys must be independent)", *b)
	}
	wantGate(b, 1)
	releaseClean(p, a)
	if a.failures != 0 || !a.retryAt.IsZero() {
		t.Fatalf("%+v after a clean release: want the streak reset", *a)
	}
	if b.failures != 1 {
		t.Fatalf("sibling has %d failures after a's reset, want its own 1", b.failures)
	}
	wantGate(a, 1) // the base rung again
}

// TestKeyedBackoffNilSafety proves a failure streak needs no setup: a
// fresh endpoint has no streak and no gate, a clean release of one that
// never failed is a harmless reset, and counting starts from there.
func TestKeyedBackoffNilSafety(t *testing.T) {
	p, err := NewPool(PoolConfig{Endpoints: []string{"10.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ep := p.eps[0]
	if ep.failures != 0 || !ep.retryAt.IsZero() || ep.quarantined {
		t.Fatalf("fresh endpoint %+v: want no streak, no gate", *ep)
	}
	releaseClean(p, ep)
	if ep.failures != 0 || !ep.retryAt.IsZero() || ep.busy {
		t.Fatalf("endpoint %+v after a clean release with no streak: want it unchanged and free", *ep)
	}
	p.fail(ep)
	if ep.failures != 1 || ep.retryAt.IsZero() || ep.busy {
		t.Fatalf("endpoint %+v after one failure: want 1 failure, gated, free", *ep)
	}
}
