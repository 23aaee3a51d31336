package sched

import (
	"sync"

	"spatialjoin/internal/geom"
)

// Collector restores deterministic emission order to a parallel run:
// result pairs of unit 0 stream straight through, pairs of later units
// are buffered until every earlier unit has finished, and then flush in
// unit order. The delivered sequence is therefore EXACTLY the sequence
// a serial run of the same units would emit, at the cost of buffering
// the results of units that finish ahead of the emission head.
//
// A unit buffers into fixed-size blocks, and a flushed block goes onto a
// free list for whichever unit needs one next. The memory allocated for
// buffering is therefore the peak backlog rounded up to a block: no
// buffer is grown by copying, and which unit happens to reuse which
// buffer, a matter of timing, does not change what is allocated.
//
// The sink is only ever invoked with the collector's mutex held, so it
// needs no synchronization of its own — but it must not call back into
// the Collector, and it must not take a lock that an Emit caller holds.
//
// A sink that panics under EmitBatch or Done leaves the collector
// unlocked and dead: it calls the sink no more and drops every later
// pair, so the units still running, and the Done each one owes, finish
// while the panic unwinds to sched.Run.
type Collector struct {
	mu   sync.Mutex
	sink func(geom.Pair)
	buf  [][][]geom.Pair // guarded by mu; each unit's blocks, all but the last full
	done []bool          // guarded by mu
	head int             // guarded by mu; first unit not yet finished; its pairs stream directly
	free [][]geom.Pair   // guarded by mu; flushed blocks, emptied, for reuse
	dead bool            // guarded by mu; a sink call has not returned
}

// blockPairs is the capacity of one buffer block: 16 KiB of pairs, one
// full result batch of a stripe slot.
const blockPairs = 1024

// NewCollector creates a collector over n units delivering to sink.
func NewCollector(n int, sink func(geom.Pair)) *Collector {
	return &Collector{
		sink: sink,
		buf:  make([][][]geom.Pair, n),
		done: make([]bool, n),
	}
}

// Emit delivers one pair of unit i: streamed when i is the emission
// head, buffered otherwise. Safe for concurrent use. It is the lean form
// for a sink that cannot panic: one that does leaves the collector
// locked.
func (c *Collector) Emit(i int, p geom.Pair) {
	c.mu.Lock()
	if i == c.head {
		c.sink(p)
	} else {
		c.bufferLocked(i, p)
	}
	c.mu.Unlock()
}

// bufferLocked appends ps to unit i's blocks, starting a block — off the
// free list when it has one — whenever the last one is full.
func (c *Collector) bufferLocked(i int, ps ...geom.Pair) {
	for len(ps) > 0 {
		bs := c.buf[i]
		if len(bs) == 0 || len(bs[len(bs)-1]) == blockPairs {
			var b []geom.Pair
			if k := len(c.free); k > 0 {
				b, c.free = c.free[k-1], c.free[:k-1]
			} else {
				b = make([]geom.Pair, 0, blockPairs)
			}
			bs = append(bs, b)
			c.buf[i] = bs
		}
		last := &bs[len(bs)-1]
		n := min(len(ps), blockPairs-len(*last))
		*last = append(*last, ps[:n]...)
		ps = ps[n:]
	}
}

// EmitBatch delivers ps as pairs of unit i, in order, exactly as
// len(ps) calls of Emit would, but under one acquisition of the mutex: a
// caller that produces pairs faster than a contended lock changes hands
// batches them. ps is not retained.
func (c *Collector) EmitBatch(i int, ps []geom.Pair) {
	if len(ps) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.dead:
	case i == c.head:
		c.sinkLocked(ps)
	default:
		c.bufferLocked(i, ps...)
	}
}

// sinkLocked hands ps to the sink in order. dead is set for the length
// of the calls, so it stays set if the sink panics.
func (c *Collector) sinkLocked(ps []geom.Pair) {
	c.dead = true
	for _, p := range ps {
		c.sink(p)
	}
	c.dead = false
}

// Done marks unit i finished. When i is the emission head, the head
// advances over every finished unit, flushing each one's blocks — and
// the first unfinished unit it lands on streams from then on. Each unit
// must call Done exactly once, after its last Emit.
func (c *Collector) Done(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[i] = true
	for c.head < len(c.done) && c.done[c.head] {
		c.head++
		if c.head == len(c.buf) {
			break
		}
		for _, b := range c.buf[c.head] {
			if !c.dead {
				c.sinkLocked(b)
			}
			c.free = append(c.free, b[:0])
		}
		c.buf[c.head] = nil
	}
}
