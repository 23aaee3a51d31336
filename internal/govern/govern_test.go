package govern

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialjoin/internal/metrics"
)

// TestCheckNilSafe: a nil Check is the free fast path — every method is
// a no-op returning nil/zero.
func TestCheckNilSafe(t *testing.T) {
	var c *Check
	if err := c.Point(); err != nil {
		t.Fatalf("nil Point: %v", err)
	}
	if err := c.Now(); err != nil {
		t.Fatalf("nil Now: %v", err)
	}
	if n := c.Calls(); n != 0 {
		t.Fatalf("nil Calls: %d", n)
	}
	if ctx := c.Context(); ctx != nil {
		t.Fatalf("nil Context: %v", ctx)
	}
	if NewCheck(nil) != nil {
		t.Fatal("NewCheck(nil) must return nil")
	}
}

// TestCheckPointInterval: Point notices cancellation within CheckInterval
// calls, never sooner than the interval boundary, and Now notices it on
// the very next call.
func TestCheckPointInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewCheck(ctx)
	for i := 0; i < CheckInterval*3; i++ {
		if err := c.Point(); err != nil {
			t.Fatalf("Point returned %v before cancellation (call %d)", err, i)
		}
	}
	cancel()
	var got error
	calls := 0
	for calls < CheckInterval+1 {
		calls++
		if got = c.Point(); got != nil {
			break
		}
	}
	if got == nil {
		t.Fatalf("Point did not notice cancellation within %d calls", CheckInterval+1)
	}
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("Point returned %v, want context.Canceled", got)
	}
	if err := c.Now(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Now after cancel: %v", err)
	}
	if c.Calls() == 0 {
		t.Fatal("Calls did not count checkpoints")
	}
}

// TestGovernorCapsConcurrency: with maxJoins=2, no more than two joins
// are ever active simultaneously, and all of them eventually run.
func TestGovernorCapsConcurrency(t *testing.T) {
	g := NewGovernor(2, 0)
	var active, maxActive, runs int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := g.Acquire(context.Background(), 100)
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			defer release()
			n := atomic.AddInt64(&active, 1)
			for {
				m := atomic.LoadInt64(&maxActive)
				if n <= m || atomic.CompareAndSwapInt64(&maxActive, m, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt64(&active, -1)
			atomic.AddInt64(&runs, 1)
		}()
	}
	wg.Wait()
	if m := atomic.LoadInt64(&maxActive); m > 2 {
		t.Fatalf("observed %d concurrent joins, cap is 2", m)
	}
	if runs != 16 {
		t.Fatalf("only %d/16 joins ran", runs)
	}
	st := g.Stats()
	if st.Active != 0 || st.ActiveMemory != 0 || st.Queued != 0 {
		t.Fatalf("governor not drained: %+v", st)
	}
	if st.Admitted != 16 {
		t.Fatalf("Admitted = %d, want 16", st.Admitted)
	}
}

// TestGovernorMemoryBudget: aggregate claimed memory never exceeds the
// budget.
func TestGovernorMemoryBudget(t *testing.T) {
	const budget = 1000
	g := NewGovernor(0, budget)
	var mem, maxMem int64
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := g.Acquire(context.Background(), 400)
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			defer release()
			n := atomic.AddInt64(&mem, 400)
			for {
				m := atomic.LoadInt64(&maxMem)
				if n <= m || atomic.CompareAndSwapInt64(&maxMem, m, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&mem, -400)
		}()
	}
	wg.Wait()
	if m := atomic.LoadInt64(&maxMem); m > budget {
		t.Fatalf("aggregate memory peaked at %d, budget %d", m, budget)
	}
}

// TestGovernorFailFast: a request that alone exceeds the total budget is
// rejected immediately with ErrOverCapacity instead of queueing forever.
func TestGovernorFailFast(t *testing.T) {
	g := NewGovernor(0, 100)
	done := make(chan error, 1)
	go func() {
		_, err := g.Acquire(context.Background(), 101)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrOverCapacity) {
			t.Fatalf("got %v, want ErrOverCapacity", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("over-budget Acquire queued instead of failing fast")
	}
	if st := g.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
}

// TestGovernorQueueWithDeadline: a queued request whose context expires
// aborts the wait with the context error and does not hold capacity.
func TestGovernorQueueWithDeadline(t *testing.T) {
	g := NewGovernor(1, 0)
	release, err := g.Acquire(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = g.Acquire(ctx, 10)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire: %v, want DeadlineExceeded", err)
	}
	st := g.Stats()
	if st.Aborted != 1 {
		t.Fatalf("Aborted = %d, want 1", st.Aborted)
	}
	if st.Queued != 0 {
		t.Fatalf("aborted waiter still queued: %+v", st)
	}
	release()
	// Capacity must be fully free again.
	r2, err := g.Acquire(context.Background(), 10)
	if err != nil {
		t.Fatalf("Acquire after release: %v", err)
	}
	r2()
}

// TestGovernorFIFONoStarvation: a large request queued first is admitted
// before a small one queued after it, even when the small one would fit
// sooner (strict FIFO prevents starvation).
func TestGovernorFIFONoStarvation(t *testing.T) {
	g := NewGovernor(0, 100)
	release, err := g.Acquire(context.Background(), 80)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	record := func(who string) {
		mu.Lock()
		order = append(order, who)
		mu.Unlock()
	}
	wg.Add(1)
	go func() { // large: needs 90, queued first
		defer wg.Done()
		r, err := g.Acquire(context.Background(), 90)
		if err != nil {
			t.Errorf("large Acquire: %v", err)
			return
		}
		record("large")
		r()
	}()
	// Let the large request enqueue before the small one.
	for {
		if g.Stats().Queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() { // small: needs 20, would fit right now — but must wait
		defer wg.Done()
		r, err := g.Acquire(context.Background(), 20)
		if err != nil {
			t.Errorf("small Acquire: %v", err)
			return
		}
		record("small")
		r()
	}()
	for {
		if g.Stats().Queued == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()
	if len(order) != 2 || order[0] != "large" {
		t.Fatalf("admission order %v, want [large small]", order)
	}
}

// TestGovernorReleaseIdempotent: calling release twice must not free
// capacity twice.
func TestGovernorReleaseIdempotent(t *testing.T) {
	g := NewGovernor(1, 0)
	release, err := g.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	release()
	release()
	st := g.Stats()
	if st.Active != 0 {
		t.Fatalf("Active = %d after double release, want 0", st.Active)
	}
	r2, err := g.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r2()
	if st := g.Stats(); st.Active != 1 {
		t.Fatalf("Active = %d, want 1 (double release freed phantom capacity)", st.Active)
	}
}

// TestGovernorUnlimited: non-positive caps never block.
func TestGovernorUnlimited(t *testing.T) {
	g := NewGovernor(0, 0)
	var rs []func()
	for i := 0; i < 100; i++ {
		r, err := g.Acquire(nil, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	for _, r := range rs {
		r()
	}
}

// TestGovernorSetMetricsWhileAdmitting hammers the promise SetMetrics
// documents — attach and detach are safe while joins are in flight —
// under -race: joins and worker slots come and go while another
// goroutine swaps the registry and scrapes Stats. Once everything is
// released, a fresh attach must publish the drained state.
func TestGovernorSetMetricsWhileAdmitting(t *testing.T) {
	g := NewGovernor(2, 1000)
	reg := metrics.New()
	stop := make(chan struct{})
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				g.SetMetrics(reg)
			} else {
				g.SetMetrics(nil)
			}
			_ = g.Stats()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				release, err := g.Acquire(context.Background(), 100)
				if err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				if slot, ok := g.TryAcquire(100); ok {
					slot()
				}
				release()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swapped

	if st := g.Stats(); st.Active != 0 || st.ActiveMemory != 0 || st.Queued != 0 || st.Admitted != 300 {
		t.Fatalf("governor not drained after 300 joins: %+v", st)
	}
	g.SetMetrics(reg)
	snap := reg.Snapshot()
	for _, name := range []string{metQueueDepth, metActiveJoins, metActiveMemory} {
		if v := snap.Value(name); v != 0 {
			t.Fatalf("%s = %v after drain, want 0", name, v)
		}
	}
}
