// Package govern is the cancellation layer of the join stack.
//
// A join is a long-running computation over simulated storage — minutes
// of partitioning, sorting and merging for the paper's larger joins —
// and a join service must be able to stop one: because the caller went
// away or because a deadline passed. Check is the cancellation
// checkpoint. Every long-running loop in the stack (partitioning, run
// formation, merge passes, sweeps, the per-request path of the simulated
// disk) polls it: per-record loops through a Stride, per-unit loops
// through Now. When the caller's context is done the loop unwinds
// through the normal error path, so a canceled join cleans up exactly
// like a failed one — structured joinerr.JoinError, temp files swept,
// goroutines wound down.
//
// Check is nil-safe in the style of package trace: a nil *Check makes
// every checkpoint a single pointer test, so joins without a context
// pay nothing.
package govern

import (
	"context"
	"sync/atomic"
)

// CheckInterval is how many Stride.Point calls pass between context
// polls. It bounds cancellation latency in per-record loops (at most
// CheckInterval records pass after cancellation before the loop
// notices) while keeping the per-record cost to a local increment and
// branch.
const CheckInterval = 256

// Check is a per-join cancellation checkpoint. One Check is created per
// join and shared by all of its phases, including concurrent workers —
// the poll count is atomic. All methods are safe on a nil receiver and
// return nil, the free fast path for joins without a context.
type Check struct {
	ctx   context.Context
	polls atomic.Int64 // context polls: Now calls, Stride's forwards included
}

// NewCheck returns a checkpoint over ctx, or nil when ctx is nil (no
// cancellation requested — callers then pay only the nil test).
func NewCheck(ctx context.Context) *Check {
	if ctx == nil {
		return nil
	}
	return &Check{ctx: ctx}
}

// Now polls the context immediately. Use it where each iteration is
// already expensive — a partition pair, a disk request — so that
// cancellation latency is bounded by ONE such unit, not CheckInterval
// of them.
func (c *Check) Now() error {
	if c == nil {
		return nil
	}
	c.polls.Add(1)
	return c.ctx.Err()
}

// Stride is a loop-local checkpoint for per-record loops, where even a
// shared atomic add per record is measurable against the per-record
// work: it forwards every CheckInterval-th call to Now (an immediate
// context poll), so cancellation latency stays bounded by CheckInterval
// records while the per-record cost is a local increment and branch. A
// Stride belongs to the one goroutine running the loop; create one per
// loop with Check.Stride. The zero Stride (and one from a nil Check) is
// a valid no-op.
type Stride struct {
	c *Check
	i uint32
}

// Stride returns a fresh loop-local checkpoint over c (a no-op when c is
// nil).
func (c *Check) Stride() Stride { return Stride{c: c} }

// Point checks the context every CheckInterval-th call. It inlines into
// the loop, so the per-record cost is the increment and the branch.
func (s *Stride) Point() error {
	if s.i++; s.i%CheckInterval != 0 {
		return nil
	}
	return s.c.poll()
}

// poll is Now kept out of line: inlined, its body would push Stride.Point
// over the compiler's inlining budget.
//
//go:noinline
func (c *Check) poll() error { return c.Now() }

// Polls returns how many times the context has been polled, by Now and
// through Strides: the count the overhead-budget test multiplies by the
// cost of one poll.
func (c *Check) Polls() int64 {
	if c == nil {
		return 0
	}
	return c.polls.Load()
}
