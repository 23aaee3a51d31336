package govern

import (
	"context"
	"errors"
	"testing"
)

// TestCheckNilSafe: a nil Check is the free fast path — every method is
// a no-op returning nil/zero, and so is a Stride over it or a zero
// Stride.
func TestCheckNilSafe(t *testing.T) {
	var c *Check
	if err := c.Now(); err != nil {
		t.Fatalf("nil Now: %v", err)
	}
	if n := c.Polls(); n != 0 {
		t.Fatalf("nil Polls: %d", n)
	}
	nilStride, zero := c.Stride(), Stride{}
	for i := 0; i < 2*CheckInterval; i++ {
		if err := nilStride.Point(); err != nil {
			t.Fatalf("Stride over nil Check: %v", err)
		}
		if err := zero.Point(); err != nil {
			t.Fatalf("zero Stride: %v", err)
		}
	}
	if NewCheck(nil) != nil {
		t.Fatal("NewCheck(nil) must return nil")
	}
}

// TestStrideInterval: a Stride polls the context on every
// CheckInterval-th call and never between, notices cancellation within
// CheckInterval calls, and Now notices it on the very next call. Polls
// counts exactly the polls made.
func TestStrideInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := NewCheck(ctx)
	st := c.Stride()
	for i := 1; i < CheckInterval; i++ {
		if err := st.Point(); err != nil {
			t.Fatalf("Point returned %v before cancellation (call %d)", err, i)
		}
	}
	if n := c.Polls(); n != 0 {
		t.Fatalf("%d polls before the %d-th call, want 0", n, CheckInterval)
	}
	for i := CheckInterval; i <= CheckInterval*3; i++ {
		if err := st.Point(); err != nil {
			t.Fatalf("Point returned %v before cancellation (call %d)", err, i)
		}
	}
	if n := c.Polls(); n != 3 {
		t.Fatalf("%d polls after %d calls, want 3", n, CheckInterval*3)
	}
	cancel()
	var got error
	calls := 0
	for calls < CheckInterval {
		calls++
		if got = st.Point(); got != nil {
			break
		}
	}
	if got == nil {
		t.Fatalf("Point did not notice cancellation within %d calls", CheckInterval)
	}
	if !errors.Is(got, context.Canceled) {
		t.Fatalf("Point returned %v, want context.Canceled", got)
	}
	if err := c.Now(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Now after cancel: %v", err)
	}
	if n := c.Polls(); n != 5 {
		t.Fatalf("Polls = %d, want 5 (3 strided before the cancel, 1 after, 1 Now)", n)
	}
}
