package govern

import (
	"context"
	"errors"
	"testing"
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
