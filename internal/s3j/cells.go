package s3j

import (
	"errors"
	"slices"
	"sync"

	"spatialjoin/internal/extsort"
	"spatialjoin/internal/geom"
)

// batchRecs and numBatches shape the hand-over between the scan's two
// stages (see mergeCells): a batch carries batchRecs decoded level
// records, and numBatches of them circulate, so the merge stage runs at
// most that far ahead of the cell joins.
const (
	batchRecs  = 2048
	numBatches = 4
)

// batch is a run of level records decoded out of the merge, each with its
// relation (0 for R, 1 for S).
type batch struct {
	n    int
	keys [batchRecs]uint64
	kpes [batchRecs]geom.KPE
	rels [batchRecs]uint8
}

// add decodes rec of relation rel into b and reports whether b is full.
func (b *batch) add(rec []byte, rel int) bool {
	b.keys[b.n], b.kpes[b.n] = decodeLevRec(rec)
	b.rels[b.n] = uint8(rel)
	b.n++
	return b.n == batchRecs
}

// batches is the free list of the scan's batches: a parallel scan takes
// numBatches of them and gives them back when it ends, so a repeated join
// allocates none. It is not a sync.Pool because a pool drops what it
// holds over two collections, and one Put in four at random under the
// race detector.
var batches struct {
	mu   sync.Mutex
	free []*batch // guarded by mu
}

// takeBatch returns an empty batch from the free list, or a new one.
func takeBatch() *batch {
	batches.mu.Lock()
	defer batches.mu.Unlock()
	top := len(batches.free) - 1
	if top < 0 {
		return new(batch)
	}
	b := batches.free[top]
	batches.free = batches.free[:top]
	return b
}

// giveBatch empties b and puts it back on the free list.
func giveBatch(b *batch) {
	b.n = 0
	batches.mu.Lock()
	batches.free = append(batches.free, b)
	batches.mu.Unlock()
}

// cellGatherer is the cell-join stage's reading state: the cell being
// gathered (its key and relation) and where its records go.
type cellGatherer struct {
	arena *[2][]geom.KPE
	open  func(key uint64, rel int)
	key   uint64
	cur   int // the relation of the cell being gathered; -1 before the first
}

// add gathers one level record, its scan key k and its KPE, of relation
// rel.
func (g *cellGatherer) add(k uint64, kpe geom.KPE, rel int) {
	if rel != g.cur || k != g.key {
		g.open(k, rel)
		g.key, g.cur = k, rel
	}
	g.arena[rel] = append(g.arena[rel], kpe)
}

// take gathers the records of b and empties it.
func (g *cellGatherer) take(b *batch) {
	for i := range b.n {
		g.add(b.keys[i], b.kpes[i], int(b.rels[i]))
	}
	b.n = 0
}

// errScanEnded stops the merge stage when the cell-join stage has left.
var errScanEnded = errors.New("s3j: scan ended")

// mergeCells reads the runs of both relations through one
// extsort.Merge, R's runs first, so the level records come by scan key,
// then R before S, then run. A cell is the consecutive records of one
// scan key and one relation; its parts come from the runs that hold
// them, in input order. open is called at a cell's first record, before
// any of the cell's records is appended to arena[rel], so it may
// truncate the arena; then every record of the cell is appended there. A
// run is read as the record range the partitioner (or a forced merge)
// counted, so a torn run is a recfile.CorruptError, never a shorter cell.
//
// The scan runs in two stages. The merge stage is Merge, decoding each
// record it yields, with its relation; the cell-join stage gathers the
// records into cells on the caller's goroutine, and open retires and
// joins them. With workers ≥ 2 the merge stage runs on a goroutine of its
// own and hands its records over in batches (pipeCells), so the two
// overlap; it decodes them as it copies them out of the reader's frame,
// which leaves the cell-join stage, the longer one, only its own work.
// With fewer the cell-join stage takes each record as Merge yields it: no
// batch, no goroutine, and no record is read before the scan needs it.
// Both see the merge's order, so the cells, the pairs and every I/O count
// are the same at every width.
func mergeCells(runs [2][]extsort.Run, bufPages int, cfg extsort.Config, workers int, arena *[2][]geom.KPE, open func(key uint64, rel int)) error {
	g := &cellGatherer{arena: arena, open: open, cur: -1}
	nR := len(runs[0])
	merge := func(yield func(rec []byte, run int) error) error {
		_, err := extsort.Merge(slices.Concat(runs[0], runs[1]), bufPages, cfg, yield)
		return err
	}
	if workers < 2 {
		return merge(func(rec []byte, run int) error {
			k, kpe := decodeLevRec(rec)
			g.add(k, kpe, relOf(run, nR))
			return nil
		})
	}
	return pipeCells(merge, nR, g)
}

// relOf is the relation of run number run when R has nR runs.
func relOf(run, nR int) int {
	if run < nR {
		return 0
	}
	return 1
}

// pipeCells runs merge on a goroutine of its own, which fills batches and
// hands them over in order, and gathers them into cells on the caller's
// goroutine. Every exit of the cell-join stage — the end of the merge, its
// error, a panic in open — closes stop and waits for the merge stage to
// return, so no goroutine and no read of a run outlives the scan. Once
// the merge stage fails the cell-join stage stops at the next batch.
func pipeCells(merge func(yield func(rec []byte, run int) error) error, nR int, g *cellGatherer) error {
	// Both channels hold every batch, so a batch handed back to free never
	// blocks, and the merge stage runs ahead until all of them are full.
	var all [numBatches]*batch
	full := make(chan *batch, numBatches)
	free := make(chan *batch, numBatches)
	for i := range all {
		all[i] = takeBatch()
		free <- all[i]
	}
	stop := make(chan struct{})   // closed when the cell-join stage leaves
	failed := make(chan struct{}) // closed when mergeErr is set
	var mergeErr error
	go func() {
		defer close(full)
		var b *batch
		send := func() error {
			select {
			case full <- b:
				b = nil
				return nil
			case <-stop:
				return errScanEnded
			}
		}
		err := merge(func(rec []byte, run int) error {
			if b == nil {
				select {
				case b = <-free:
				case <-stop:
					return errScanEnded
				}
			}
			if b.add(rec, relOf(run, nR)) {
				return send()
			}
			return nil
		})
		if err == nil && b != nil {
			err = send()
		}
		if err != nil {
			mergeErr = err
			close(failed)
		}
	}()
	defer func() {
		close(stop)
		for range full { // until the merge stage has returned
		}
		for _, b := range all {
			giveBatch(b)
		}
	}()
	for b := range full {
		select {
		case <-failed:
			return mergeErr
		default:
		}
		g.take(b)
		free <- b // never blocks: free holds every batch
	}
	return mergeErr
}
