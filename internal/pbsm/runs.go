package pbsm

import (
	"fmt"
	"slices"
	"sync"

	"spatialjoin/internal/extsort"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/recfile"
)

// DupSort forms its runs in two steps. The sink, spill, only appends the
// join phase's pairs, in delivery order, to the chunk being filled: fixed
// blocks drawn from a bounded free list. Once the chunk holds chunkRecs
// pairs and another arrives, its blocks are handed over to formRun, which
// gathers them into the sort buffer, gives them back to the free list,
// and sorts, compacts and writes the run. From Parallel 2 on formRun runs
// on a goroutine of its own, the run former, so a worker waits on the
// collector's mutex for appends only, not for a sort or a run write; at
// one worker spill calls it inline. Chunk boundaries are set by count in
// delivery order either way, so every run and every I/O unit is the same
// at every width.

// blockPairs is the size of one chunk block: 16 KiB of pairs, the
// collector's block and a full result batch of a stripe slot.
const blockPairs = 1024

// spareBlocks is how many blocks the free list holds beyond one chunk's:
// what the sink fills while the run former gathers the chunk before.
const spareBlocks = 4

// chunk is DupSort's run formation state. The sink's fields (cur, room,
// blocks, n) are touched only under the collector's mutex, then by the
// dup phase; buf and scratch, the join's runs and spillErr only by
// formRun, one chunk at a time.
type chunk struct {
	cur    []geom.Pair   // the block being filled
	room   int           // pairs cur takes before the next block
	blocks [][]geom.Pair // the chunk's full blocks
	n      int           // pairs in blocks

	// The free list. Blocks are made as the sink needs them, at most
	// perChunk + spareBlocks, so a small result allocates little under a
	// large Memory.
	perChunk int // blocks in a full chunk
	mu       sync.Mutex
	given    sync.Cond     // on mu; a block went back
	free     [][]geom.Pair // guarded by mu; empty blocks
	made     int           // guarded by mu; blocks allocated

	buf, scratch []geom.Pair // the sort buffer and the radix sort's space

	// The run former, from formRunsAside to stopFormer: the chunks handed
	// to it, closed when it returns, and its panic, read once it has.
	chunks   chan [][]geom.Pair
	exited   chan struct{}
	panicked any
}

// init prepares the run formation of chunks of chunkRecs pairs.
func (c *chunk) init(chunkRecs int) {
	c.perChunk = (chunkRecs + blockPairs - 1) / blockPairs
	c.blocks = make([][]geom.Pair, 0, c.perChunk)
	c.given.L = &c.mu
}

// spill is DupSort's sink. The collector calls it in delivery order, so
// every chunk, hence every run, is the same at any Parallel.
func (j *joiner) spill(p geom.Pair) {
	c := &j.chunk
	if len(c.cur) == c.room {
		j.nextBlock()
	}
	c.cur = append(c.cur, p)
}

// nextBlock adds the full block cur to the chunk, hands the chunk over
// once it holds chunkRecs pairs, and starts a block that ends no later
// than the chunk.
func (j *joiner) nextBlock() {
	c := &j.chunk
	if c.cur != nil {
		c.blocks = append(c.blocks, c.cur)
		c.n += len(c.cur)
	}
	if c.n == j.chunkRecs {
		if c.chunks != nil {
			c.chunks <- c.blocks
		} else {
			j.failSpill(j.formRun(c.blocks))
		}
		c.blocks, c.n = make([][]geom.Pair, 0, c.perChunk), 0
	}
	c.cur, c.room = c.take(), min(blockPairs, j.chunkRecs-c.n)
}

// take returns an empty block: off the free list, new while fewer than
// perChunk + spareBlocks exist, or else the next one formRun gives back.
func (c *chunk) take() []geom.Pair {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.free) == 0 {
		if c.made < c.perChunk+spareBlocks {
			c.made++
			return make([]geom.Pair, 0, blockPairs)
		}
		c.given.Wait()
	}
	b := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return b
}

// give puts the blocks back on the free list, emptied.
func (c *chunk) give(blocks [][]geom.Pair) {
	c.mu.Lock()
	for _, b := range blocks {
		c.free = append(c.free, b[:0])
	}
	c.mu.Unlock()
	c.given.Signal()
}

// formRun gathers the blocks into the sort buffer and gives them back to
// the free list; it never waits on the sink. Unless a join-phase run has failed, it then writes the
// gathered pairs, sorted and without equal pairs, as one run in the
// chunk's window (iocost.Device.ChunkBuf).
func (j *joiner) formRun(blocks [][]geom.Pair) error {
	c := &j.chunk
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	if cap(c.buf) < n {
		c.buf = make([]geom.Pair, 0, n)
	}
	buf := c.buf[:0]
	for _, b := range blocks {
		buf = append(buf, b...)
	}
	c.give(blocks)
	if j.spillErr != nil || n == 0 {
		return nil
	}
	if len(c.scratch) < n {
		c.scratch = make([]geom.Pair, n)
	}
	geom.SortPairs(buf, c.scratch)
	run := slices.Compact(buf)
	f := j.reg.Create()
	w := recfile.NewPairWriter(f, j.dev.ChunkBuf(j.cfg.Memory))
	chk := j.cfg.Cancel.Stride()
	for _, p := range run {
		if err := chk.Point(); err != nil {
			return err
		}
		if err := w.Write(p); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	j.runs = append(j.runs, extsort.Run{File: f, Recs: int64(len(run))})
	return nil
}

// failSpill keeps err, the error of a join-phase run, in spillErr, under
// the stats mutex, for fold to end the join phase with (a sink cannot
// return it). formRun writes no run after it, so it is the first.
func (j *joiner) failSpill(err error) {
	if err != nil {
		j.bump(func() { j.spillErr = joinerr.Wrap("pbsm", PhaseJoin.String(), err) })
	}
}

// formLast forms the run of the chunk the join phase left, full or not:
// the dup phase's first step. It then drops the blocks, the sort buffer
// and the scratch, so the merge after it holds none of them.
func (j *joiner) formLast() error {
	c := &j.chunk
	if c.cur != nil {
		c.blocks = append(c.blocks, c.cur)
	}
	err := j.formRun(c.blocks)
	j.chunk = chunk{}
	return err
}

// formRunsAside starts the run former when the join phase's sink is
// spill and more than one worker fills it, and returns what stops it.
// The join phase defers the stop inside its activation, so every run
// write is charged to it, and on every exit path before the registry's
// sweep.
func (j *joiner) formRunsAside() (stop func()) {
	if j.cfg.Dup != DupSort || j.cfg.Parallel < 2 {
		return func() {}
	}
	c := &j.chunk
	c.chunks, c.exited = make(chan [][]geom.Pair), make(chan struct{})
	go func() {
		defer close(c.exited)
		for blocks := range c.chunks {
			j.formCarried(blocks)
		}
	}()
	return j.stopFormer
}

// formCarried is formRun on the run former. A panic is kept for
// stopFormer to raise on the join's goroutine and fails the join phase
// like a write error; the former goes on giving back the blocks of every
// chunk after it, so a waiting sink always gets one. formRun gives a
// chunk's blocks back before anything that could panic.
func (j *joiner) formCarried(blocks [][]geom.Pair) {
	defer func() {
		if r := recover(); r != nil {
			j.chunk.panicked = r
			j.failSpill(fmt.Errorf("run former panicked: %v", r))
		}
	}()
	j.failSpill(j.formRun(blocks))
}

// stopFormer closes the hand-over, waits for the run former to form what
// it was handed and return, and raises its panic, if it had one, on the
// caller's goroutine.
func (j *joiner) stopFormer() {
	c := &j.chunk
	close(c.chunks)
	<-c.exited
	c.chunks = nil
	if c.panicked != nil {
		panic(c.panicked)
	}
}
