// Package govern is the resource-governance layer of the join stack:
// cooperative cancellation and admission control.
//
// A join is a long-running computation over simulated storage — minutes
// of partitioning, sorting and merging for the paper's larger joins —
// and a production join service must be able to stop one: because the
// caller went away, because a deadline passed, or because admitting it
// would thrash the memory budget shared with other joins. Two types
// provide that:
//
//   - Check is a cancellation checkpoint. Every long-running loop in the
//     stack (partitioning, run formation, merge passes, sweeps, the
//     per-request path of the simulated disk) polls it; when the
//     caller's context is done the loop unwinds through the normal
//     error path, so a canceled join cleans up exactly like a failed
//     one — structured joinerr.JoinError, temp files swept, goroutines
//     wound down.
//
//   - Governor is an admission controller shared by concurrent joins:
//     it caps how many joins run at once and how much memory they may
//     claim in aggregate. Excess joins queue FIFO and honor their
//     context while queued (queue-with-deadline), so an overloaded
//     service degrades into bounded waiting or fast failure instead of
//     thrashing.
//
// Both are nil-safe in the style of package trace: a nil *Check makes
// every checkpoint a single pointer test, so joins without a context
// pay nothing.
package govern

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// CheckInterval is how many Point calls pass between context polls. It
// bounds cancellation latency in CPU-bound loops (at most CheckInterval
// iterations pass after cancellation before the loop notices) while
// keeping the per-iteration cost to one atomic add.
const CheckInterval = 256

// Check is a per-join cancellation checkpoint. One Check is created per
// join and shared by all of its phases, including concurrent workers —
// the counter is atomic. All methods are safe on a nil receiver and
// return nil, the free fast path for joins without a context.
type Check struct {
	ctx context.Context
	n   atomic.Int64 // Point calls
	imm atomic.Int64 // Now calls (immediate polls)
}

// NewCheck returns a checkpoint over ctx, or nil when ctx is nil (no
// cancellation requested — callers then pay only the nil test).
func NewCheck(ctx context.Context) *Check {
	if ctx == nil {
		return nil
	}
	return &Check{ctx: ctx}
}

// Point is the amortized checkpoint for tight loops: it polls the
// context every CheckInterval-th call and returns its error once the
// context is done. Place one Point per iteration of any loop whose trip
// count is data-dependent.
func (c *Check) Point() error {
	if c == nil {
		return nil
	}
	if c.n.Add(1)%CheckInterval != 0 {
		return nil
	}
	return c.ctx.Err()
}

// Now polls the context immediately. Use it where each iteration is
// already expensive — a partition pair, a disk request — so that
// cancellation latency is bounded by ONE such unit, not CheckInterval
// of them.
func (c *Check) Now() error {
	if c == nil {
		return nil
	}
	c.imm.Add(1)
	return c.ctx.Err()
}

// Stride is a loop-local checkpoint for per-record loops, where even
// Point's shared atomic add is measurable against the per-record work:
// it forwards every CheckInterval-th call to Now (an immediate context
// poll), so cancellation latency stays bounded by CheckInterval records
// while the per-record cost is a local increment and branch. A Stride
// belongs to the one goroutine running the loop; create one per loop
// with Check.Stride. The zero Stride (and one from a nil Check) is a
// valid no-op.
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

// Calls returns how many checkpoints have executed (Point and Now), the
// site count the overhead-budget test multiplies by the per-site cost.
func (c *Check) Calls() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load() + c.imm.Load()
}

// NowCalls returns how many of those checkpoints were immediate polls —
// the costlier flavor, charged separately by the overhead-budget test.
func (c *Check) NowCalls() int64 {
	if c == nil {
		return 0
	}
	return c.imm.Load()
}

// Context returns the underlying context (nil for a nil Check).
func (c *Check) Context() context.Context {
	if c == nil {
		return nil
	}
	return c.ctx
}

// ErrOverCapacity is returned by Governor.Acquire for a request that can
// NEVER be admitted (it alone exceeds the aggregate memory budget), so
// queueing would block forever. Callers should fail fast.
var ErrOverCapacity = errors.New("govern: request exceeds the governor's total budget")

// Governor admission-controls joins sharing a machine: at most MaxJoins
// run concurrently and their claimed memory sums to at most MaxMemory.
// A join that does not fit queues FIFO until capacity frees or its
// context is done. The zero value is not usable; call NewGovernor.
type Governor struct {
	maxJoins int   // ≤0 = unlimited
	maxMem   int64 // ≤0 = unlimited

	mu      sync.Mutex
	active  int           // guarded by mu
	mem     int64         // guarded by mu
	waiters []*waiter     // guarded by mu
	stats   GovernorStats // guarded by mu
	met     *govMetrics   // guarded by mu; live-metrics handles (nil = detached)
}

// waiter is one queued Acquire. ready is closed (with the grant already
// booked under the governor's lock) when the request is admitted.
type waiter struct {
	mem   int64
	ready chan struct{}
}

// GovernorStats counts what the governor did.
type GovernorStats struct {
	Admitted int64 // grants handed out (with or without queueing)
	Waited   int64 // grants that queued before admission
	Rejected int64 // fail-fast ErrOverCapacity rejections
	Aborted  int64 // queue waits ended by context cancellation/deadline

	WorkerGrants   int64 // TryAcquire grants (extra parallel worker slots)
	WorkerDeclined int64 // TryAcquire denials (workers degraded to fewer slots)

	WorkerGrantedMem  int64 // bytes granted to worker slots over the governor's lifetime
	WorkerDeclinedMem int64 // bytes declined to worker slots over the governor's lifetime

	Active       int   // joins currently admitted
	ActiveMemory int64 // memory currently claimed
	Queued       int   // joins currently waiting
}

// NewGovernor creates a governor admitting at most maxJoins concurrent
// joins claiming at most maxMemory aggregate bytes. Non-positive values
// leave the respective dimension unlimited.
func NewGovernor(maxJoins int, maxMemory int64) *Governor {
	return &Governor{maxJoins: maxJoins, maxMem: maxMemory}
}

// Stats returns a snapshot of the admission counters.
func (g *Governor) Stats() GovernorStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.stats
	st.Active = g.active
	st.ActiveMemory = g.mem
	st.Queued = len(g.waiters)
	return st
}

// fitsLocked reports whether a mem-byte join could start right now. Caller
// holds g.mu.
func (g *Governor) fitsLocked(mem int64) bool {
	if g.maxJoins > 0 && g.active >= g.maxJoins {
		return false
	}
	if g.maxMem > 0 && g.mem+mem > g.maxMem {
		return false
	}
	return true
}

// admitLocked books a grant. Caller holds g.mu.
func (g *Governor) admitLocked(mem int64) {
	g.active++
	g.mem += mem
	g.stats.Admitted++
	if g.met != nil {
		g.met.admitted.Inc()
	}
}

// wakeLocked admits queued requests from the head while they fit. Strict FIFO:
// the first waiter that does not fit blocks the ones behind it, so a
// large join cannot be starved by a stream of small ones. Caller holds
// g.mu.
func (g *Governor) wakeLocked() {
	for len(g.waiters) > 0 && g.fitsLocked(g.waiters[0].mem) {
		w := g.waiters[0]
		g.waiters = g.waiters[1:]
		g.admitLocked(w.mem)
		close(w.ready)
	}
	g.syncGaugesLocked()
}

// Acquire claims mem bytes and one join slot, queueing while the
// governor is at capacity. It returns a release function (idempotent;
// must be called when the join finishes, however it finishes) or an
// error: ErrOverCapacity when the request alone exceeds the total
// budget (fail fast — it could never be admitted), or ctx.Err() when
// the context ends the queue wait. A nil ctx queues without a deadline.
func (g *Governor) Acquire(ctx context.Context, mem int64) (release func(), err error) {
	if mem < 0 {
		mem = 0
	}
	g.mu.Lock()
	if g.maxMem > 0 && mem > g.maxMem {
		g.stats.Rejected++
		if g.met != nil {
			g.met.rejected.Inc()
		}
		g.mu.Unlock()
		return nil, fmt.Errorf("%w: need %d bytes, budget %d", ErrOverCapacity, mem, g.maxMem)
	}
	// Fast path: capacity available and nobody queued ahead of us.
	if len(g.waiters) == 0 && g.fitsLocked(mem) {
		g.admitLocked(mem)
		g.syncGaugesLocked()
		g.mu.Unlock()
		return g.releaseFunc(mem), nil
	}
	w := &waiter{mem: mem, ready: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.stats.Waited++
	if g.met != nil {
		g.met.waited.Inc()
	}
	g.syncGaugesLocked()
	g.mu.Unlock()

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-w.ready:
		return g.releaseFunc(mem), nil
	case <-done:
		g.mu.Lock()
		select {
		case <-w.ready:
			// Admitted concurrently with the context firing: the grant
			// is already booked, so honor it — the caller's own
			// checkpoints will notice the cancellation immediately.
			g.mu.Unlock()
			return g.releaseFunc(mem), nil
		default:
		}
		for i, q := range g.waiters {
			if q == w {
				g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
				break
			}
		}
		g.stats.Aborted++
		if g.met != nil {
			g.met.aborted.Inc()
		}
		// Our departure may unblock a smaller request queued behind us.
		g.wakeLocked()
		g.mu.Unlock()
		return nil, ctx.Err()
	}
}

// TryAcquire claims mem extra bytes without queueing and without
// consuming a join slot. It is the admission path for *parallel worker
// slots* inside an already-admitted join: the join's own Acquire claim
// covers its serial working set, and each extra concurrent worker
// multiplies that working set, so the scheduler asks the governor for
// the overshoot before spinning the worker up. The claim is granted
// only when it fits right now AND nobody is queued (a worker slot must
// never starve a whole join waiting FIFO at the head); otherwise
// TryAcquire reports false and the caller simply runs with fewer
// workers — graceful degradation instead of blocking under a lock the
// running join already holds resources against. The release function is
// idempotent and must be called when the worker finishes.
func (g *Governor) TryAcquire(mem int64) (release func(), ok bool) {
	if mem < 0 {
		mem = 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.waiters) > 0 || (g.maxMem > 0 && g.mem+mem > g.maxMem) {
		g.stats.WorkerDeclined++
		g.stats.WorkerDeclinedMem += mem
		if g.met != nil {
			g.met.wDeclined.Inc()
			g.met.wDenied.Add(mem)
		}
		return nil, false
	}
	g.mem += mem
	g.stats.WorkerGrants++
	g.stats.WorkerGrantedMem += mem
	if g.met != nil {
		g.met.wGrants.Inc()
		g.met.wGranted.Add(mem)
	}
	g.syncGaugesLocked()
	return g.releaseMemFunc(mem), true
}

// releaseMemFunc returns the idempotent release closure for one
// memory-only TryAcquire grant (no join slot to return).
func (g *Governor) releaseMemFunc(mem int64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.mem -= mem
			g.wakeLocked()
			g.mu.Unlock()
		})
	}
}

// releaseFunc returns the idempotent release closure for one grant.
func (g *Governor) releaseFunc(mem int64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.active--
			g.mem -= mem
			g.wakeLocked()
			g.mu.Unlock()
		})
	}
}
