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
// the results of units that finish ahead of the emission head. A flushed
// buffer goes onto a free list for the next unit that needs one, so the
// memory allocated for buffering follows the peak backlog, not the total
// number of results.
//
// The sink is only ever invoked with the collector's mutex held, so it
// needs no synchronization of its own — but it must not call back into
// the Collector, and it must not take a lock that an Emit caller holds.
type Collector struct {
	mu   sync.Mutex
	sink func(geom.Pair)
	buf  [][]geom.Pair // guarded by mu
	done []bool        // guarded by mu
	head int           // guarded by mu; first unit not yet finished; its pairs stream directly
	free [][]geom.Pair // guarded by mu; flushed buffers, emptied, for reuse
}

// NewCollector creates a collector over n units delivering to sink.
func NewCollector(n int, sink func(geom.Pair)) *Collector {
	return &Collector{
		sink: sink,
		buf:  make([][]geom.Pair, n),
		done: make([]bool, n),
	}
}

// Emit delivers one pair of unit i: streamed when i is the emission
// head, buffered otherwise. Safe for concurrent use.
func (c *Collector) Emit(i int, p geom.Pair) {
	c.mu.Lock()
	if i == c.head {
		c.sink(p)
	} else {
		c.recycleLocked(i)
		c.buf[i] = append(c.buf[i], p)
	}
	c.mu.Unlock()
}

// recycleLocked gives unit i a flushed buffer off the free list when it
// has none yet.
func (c *Collector) recycleLocked(i int) {
	if c.buf[i] == nil && len(c.free) > 0 {
		c.buf[i] = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
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
	if i == c.head {
		for _, p := range ps {
			c.sink(p)
		}
	} else {
		c.recycleLocked(i)
		c.buf[i] = append(c.buf[i], ps...)
	}
	c.mu.Unlock()
}

// Done marks unit i finished. When i is the emission head, the head
// advances over every finished unit, flushing each one's buffer — and
// the first unfinished unit it lands on streams from then on. Each unit
// must call Done exactly once, after its last Emit.
func (c *Collector) Done(i int) {
	c.mu.Lock()
	c.done[i] = true
	for c.head < len(c.done) && c.done[c.head] {
		c.head++
		if c.head < len(c.buf) && c.buf[c.head] != nil {
			for _, p := range c.buf[c.head] {
				c.sink(p)
			}
			c.free = append(c.free, c.buf[c.head][:0])
			c.buf[c.head] = nil
		}
	}
	c.mu.Unlock()
}
