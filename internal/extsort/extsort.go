// Package extsort implements external merge sort over files of fixed-size
// records stored on the simulated disk of package diskio, in the
// checksummed frame format of package recfile.
//
// Sort is used by SSSJ. Run formation reads the input once and writes
// sorted runs once; when more than one run is produced, multiway merge
// passes follow, each reading and writing the data once — exactly the I/O
// behaviour §5.1 of the paper accounts for. Sort is the composition of
// halves that are exported on their own: RunWriter.WriteRun sorts a
// chunk that is already in memory and writes it as one run, MergeDown
// merges a list of runs by whole passes, and Merge streams one merge to
// a callback instead of a file. S³J (§4.2) and PBSM's original duplicate
// removal (result pairs ordered by ID, §3.1) use the halves directly:
// they fill the chunks themselves, so no unsorted file is ever written or
// read back, and their last merge delivers the results, so MergeDown runs
// only when there are more runs than that merge may hold cursors for.
//
// Merge is the tree's one k-way merge of sorted record streams. Every
// merge pass runs through it, and so do S³J's synchronized scan, which
// merges the runs of both relations and tells them apart by the run
// index Merge hands it, PBSM's duplicate-removing final merge, and SSSJ's
// sweep, a merge of the two sorted relations. Each caller sizes the
// cursors' requests, since their rules differ: a merge pass and DupSort
// share Memory with an output stream, the scan's cursors share it among
// themselves, SSSJ's sweep reads in unit requests.
//
// Run formation never moves a record while sorting: it orders the
// chunk's positions by Config.Key's 64-bit prefix of the order, extracted
// once per record, then by Config.Less when it is set, then by position,
// and writes the run through that order. The order is total and the sort
// stable. Without Less — S³J's and SSSJ's sorts — a least-significant-digit
// radix sorts the positions, one stable pass per byte of the key that
// varies in the chunk, over an 8-byte key and two 4-byte position arrays
// per record; with Less (a Less-only caller has every key 0)
// slices.SortFunc sorts a 16-byte (key, position) entry per record. Both
// give the same run for the same order. The merge breaks ties the same
// way with the run ordinal in place of the position, which keeps the
// whole sort stable: runs and merge groups cover consecutive input
// ranges. Chunks stay Memory/RecordSize records, so run counts and merge
// passes are what they were when records were swapped in place; the
// index is 16 bytes per record of the chunk that a sort worker holds
// BEYOND Memory. A RunWriter keeps its index from run to run, so a
// worker that writes many runs allocates it once.
//
// A run's records are all in its chunk, inside Memory, when its write
// begins, and the chunk read that fills a chunk lands in it directly;
// neither stream needs a buffer of its own (diskio's Writer and Reader
// hold none), so both move the chunk in requests as wide as the chunk's
// own stream (iocost.Device.ChunkBuf).
//
// Both stages decompose into independent units — run-formation chunks
// cover disjoint record ranges of the input, and the merge groups of one
// pass share no runs — so both run on the shared worker pool of package
// sched when Config.Parallel asks for it. Chunk boundaries and group
// assignments are identical in serial and parallel mode (each unit
// writes its own output file), so parallelism changes wall-clock time
// only: the same runs with the same contents are formed and merged
// either way, and Stats.Runs/MergePass/Comparisons are reproducible.
//
// All I/O errors — injected transient faults that survive the recfile
// retry, torn frames, checksum mismatches — abort the sort and are
// returned to the caller; a sort never silently drops or reorders
// records.
package extsort

import (
	"cmp"
	"container/heap"
	"errors"
	"math"
	"slices"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/trace"
)

// Less compares two records given as raw byte slices of the configured
// record size.
type Less func(a, b []byte) bool

// Config controls a sort.
type Config struct {
	Disk       *diskio.Disk
	RecordSize int   // bytes per record
	Memory     int64 // in-memory workspace budget in bytes
	// BufPages caps every stream's requests at this many pages. Values
	// < 1 let a merge's runs and output take their share of Memory
	// (iocost.Device.BufFor), and the run writes and the chunk reads,
	// whose chunk already fills Memory, the chunk's own window
	// (iocost.Device.ChunkBuf).
	BufPages int
	// Key and Less define the order; at least one is required. Key maps a
	// record to a 64-bit prefix of the order (smaller sorts first) and is
	// called once per record per pass; Less decides between records whose
	// keys are equal (all of them when Key is nil). Records neither tells
	// apart keep their input order.
	Key  func(rec []byte) uint64
	Less Less
	// Parallel is the worker count for run formation and the merge
	// groups of each pass (< 2 = sequential). Parallel workers hold one
	// memory-budget-sized working set EACH.
	Parallel int
	// Trace is the parent span the sort nests its run-formation and
	// merge-pass spans under; nil disables instrumentation.
	Trace *trace.Span
	// Reg, when non-nil, registers the sort's intermediate files (run
	// and merge-output files) — including the returned sorted file — so
	// the owning join's sweep covers them even if it aborts after the
	// sort returns. Nil gets a private registry with the pre-registry
	// behaviour: eager removal on error, returned file unregistered.
	Reg *diskio.Registry
	// Cancel is the owning join's cancellation checkpoint; nil disables
	// cancellation. Run formation and merge passes poll it per record.
	Cancel *govern.Check
}

// Stats reports what a Sort did.
type Stats struct {
	Records   int64 // records sorted
	Runs      int   // initial runs formed
	MergePass int   // number of merge passes performed (0 if one run)
	// Comparisons counts calls of Config.Less only: 0 for a Key-only
	// sort, the tie-breaks between equal keys for Key + Less, every
	// comparison for a Less-only sort.
	Comparisons int64
}

// Run is one sorted run: its file and its record count. Every run owns
// a whole file, so merge groups and run-formation chunks touch disjoint
// files and can run concurrently.
type Run struct {
	File *diskio.File
	Recs int64
}

// removeRuns removes every run file of rs.
func removeRuns(reg *diskio.Registry, rs []Run) {
	for _, r := range rs {
		reg.Remove(r.File) // a nil file is ignored
	}
}

// Sort sorts the records of in and returns a new file with the sorted
// records plus statistics. The input file is left untouched; the caller
// may Remove it. An empty input yields an empty output file. On error
// the returned file is nil and any partial output has been removed.
func Sort(in *diskio.File, cfg Config) (*diskio.File, Stats, error) {
	var st Stats
	if cfg.Key == nil && cfg.Less == nil {
		return nil, st, joinerr.Wrap("extsort", "config", errors.New("Config.Key or Config.Less is required"))
	}
	rs := cfg.RecordSize
	st.Records = recfile.NumRecs(in, rs)

	sp := cfg.Trace.Child("extsort")
	defer sp.End()
	sp.AddRecords(st.Records)

	if cfg.Reg == nil {
		cfg.Reg = cfg.Disk.NewRegistry()
	}
	cfg.Trace = sp // what run formation and the merge passes nest under

	runs, err := formRuns(in, cfg, &st)
	if err != nil {
		removeRuns(cfg.Reg, runs)
		return nil, st, err
	}
	st.Runs = len(runs)
	sp.SetAttr("runs", int64(st.Runs))
	if len(runs) == 0 {
		// Empty input: return an empty but finalized stream (exactly one
		// end-of-stream frame), which readers verify as intact.
		f := cfg.Reg.Create()
		w := recfile.NewRecWriter(f, rs, iocost.BufPages(cfg.BufPages))
		if ferr := w.Flush(); ferr != nil {
			cfg.Reg.Remove(f)
			return nil, st, ferr
		}
		return f, st, nil
	}

	runs, err = MergeDown(runs, 1, cfg, &st)
	if err != nil {
		return nil, st, err
	}
	return runs[0].File, st, nil
}

// MergeDown merges runs, a list in input order, by whole passes — each
// pass merges consecutive groups of FanIn runs into one run each — until
// at most k runs (at least one) are left, and returns them, still in
// input order. Passes and Less calls are added to st. The runs that were
// merged are removed from Config.Reg; on error every run is, merged or
// not, and the result is nil.
func MergeDown(runs []Run, k int, cfg Config, st *Stats) ([]Run, error) {
	if cfg.Reg == nil {
		cfg.Reg = cfg.Disk.NewRegistry()
	}
	for len(runs) > max(k, 1) {
		st.MergePass++
		next, err := mergePass(runs, cfg, st)
		removeRuns(cfg.Reg, runs)
		if err != nil {
			removeRuns(cfg.Reg, next)
			return nil, err
		}
		runs = next
	}
	return runs, nil
}

// formRuns sorts memory-sized chunks of the input into one run file per
// chunk. Chunks cover the fixed record ranges [i·maxRecs, (i+1)·maxRecs)
// regardless of worker count, so the runs a parallel formation produces
// are byte-identical to the serial ones.
func formRuns(in *diskio.File, cfg Config, st *Stats) ([]Run, error) {
	ph := cfg.Trace.Child("run-formation")
	defer ph.End()
	maxRecs := cfg.ChunkRecs()
	total := st.Records
	if total == 0 {
		return nil, nil
	}
	n := int((total + maxRecs - 1) / maxRecs)
	runs := make([]Run, n)
	for i := range runs {
		lo := int64(i) * maxRecs
		runs[i] = Run{File: cfg.Reg.Create(), Recs: min(lo+maxRecs, total) - lo}
	}
	comps := make([]int64, n)
	writers := make([]RunWriter, max(min(cfg.Parallel, n), 1)) // one per worker slot
	err := sched.Run(n, sched.Options{
		Workers: cfg.Parallel,
		Name:    "sort-chunk",
		Span:    ph,
		Cancel:  cfg.Cancel,
	}, func(w, i int) error {
		c, uerr := formOneRun(&writers[w], in, runs[i], int64(i)*maxRecs, cfg)
		comps[i] = c
		return uerr
	})
	for _, c := range comps {
		st.Comparisons += c
	}
	return runs, err
}

// ChunkRecs is the number of records sorted and written as one run: what
// Memory holds, at least two, and no more than a 32-bit position can
// number.
func (c *Config) ChunkRecs() int64 {
	return min(max(c.Memory/int64(c.RecordSize), 2), math.MaxUint32)
}

// indexEntry stands for one record of a chunk while the comparator path
// sorts the chunk: its key and its position in the chunk.
type indexEntry struct {
	key uint64
	pos uint32
}

// key returns the record's sort key, 0 for a Less-only sort.
func (c *Config) key(rec []byte) uint64 {
	if c.Key == nil {
		return 0
	}
	return c.Key(rec)
}

// tieBefore reports whether record a sorts before record b when their
// keys are equal; aEarlier says which of the two came first in the input
// (chunk position in run formation, run ordinal in a merge). Without
// Less that alone decides. With it one call does: the earlier record goes
// first unless the later one is strictly smaller. comps counts the call.
func (c *Config) tieBefore(a, b []byte, aEarlier bool, comps *int64) bool {
	if c.Less == nil {
		return aEarlier
	}
	*comps++
	if aEarlier {
		return !c.Less(b, a)
	}
	return c.Less(a, b)
}

// formOneRun reads the chunk's record range directly into an in-memory
// buffer (one copy: frame payload to chunk tail), in the chunk's window,
// and hands it to rw.
func formOneRun(rw *RunWriter, in *diskio.File, run Run, lo int64, cfg Config) (int64, error) {
	rs := cfg.RecordSize
	r := recfile.NewRecRangeReader(in, rs, cfg.chunkBuf(), lo, lo+run.Recs)
	chunk := make([]byte, run.Recs*int64(rs))
	chk := cfg.Cancel.Stride()
	for i := int64(0); i < run.Recs; i++ {
		if err := chk.Point(); err != nil {
			return 0, err
		}
		ok, err := r.Next(chunk[i*int64(rs):][:rs])
		if err != nil {
			return 0, err
		}
		if !ok {
			// The range reader promises exactly run.Recs records and
			// reports torn tails itself; a clean end here means the
			// length-derived count and the stream disagree.
			return 0, &recfile.CorruptError{File: in.Name(), Detail: "record range shorter than the length-derived count"}
		}
	}
	return rw.WriteRun(run.File, chunk, cfg)
}

// RunWriter writes sorted runs. It keeps its sort index from one run to
// the next: the radix path's keys and positions for a Config without
// Less, the comparator path's entries for one with it, 16 bytes per
// record either way. The zero value is ready to use; one RunWriter serves
// one goroutine at a time.
type RunWriter struct {
	idx   []indexEntry // the comparator path's index (Config.Less set)
	words []uint32     // the radix path's index: four arrays of one word per record
}

// WriteRun sorts the records that lie back to back in chunk — by Key,
// then Less, then position, through an index that never moves a record —
// and writes them to out as one run, in the chunk's window. It returns
// the calls of Less. Without Less the index is sorted by a stable radix
// over the bytes of Key that vary in the chunk (sortByKey), with Less by
// slices.SortFunc; either way it is 16 bytes per record that the
// RunWriter holds beyond the chunk.
func (rw *RunWriter) WriteRun(out *diskio.File, chunk []byte, cfg Config) (int64, error) {
	rs := cfg.RecordSize
	n := len(chunk) / rs
	var comps int64
	var order []uint32
	if cfg.Less == nil {
		order = rw.sortByKey(chunk, cfg)
	} else {
		comps = rw.sortByLess(chunk, cfg)
	}
	w := recfile.NewRecWriter(out, rs, cfg.chunkBuf())
	chk := cfg.Cancel.Stride()
	for i := range n {
		if err := chk.Point(); err != nil {
			return comps, err
		}
		var p int
		if cfg.Less == nil {
			p = int(order[i])
		} else {
			p = int(rw.idx[i].pos)
		}
		if err := w.Write(chunk[p*rs:][:rs]); err != nil {
			return comps, err
		}
	}
	return comps, w.Flush()
}

// sortByKey returns the chunk's positions in (key, position) order: a
// least-significant-digit radix sort of the positions, one stable
// counting pass per byte of the key, skipping every byte that is the same
// in all keys of the chunk. Each key is extracted once, as two 32-bit
// halves kept by chunk position; a pass reads its byte from one half, and
// counts it over the half in chunk order, since a permutation does not
// change the counts. Halves and the two position arrays share one
// allocation of 16 bytes per record.
func (rw *RunWriter) sortByKey(chunk []byte, cfg Config) []uint32 {
	rs := cfg.RecordSize
	n := len(chunk) / rs
	if cap(rw.words) < 4*n {
		rw.words = make([]uint32, 4*n)
	}
	w := rw.words[:4*n]
	halves := [2][]uint32{w[:n], w[n : 2*n]} // bits 0..31 and 32..63 of each key
	src, dst := w[2*n:3*n], w[3*n:]
	or, and := uint64(0), ^uint64(0)
	for i := range n {
		k := cfg.key(chunk[i*rs:][:rs])
		halves[0][i], halves[1][i], src[i] = uint32(k), uint32(k>>32), uint32(i)
		or, and = or|k, and&k
	}
	varies := or ^ and // the bits that differ between some two keys
	for shift := 0; shift < 64; shift += 8 {
		if varies>>shift&0xff == 0 {
			continue
		}
		half, sh := halves[shift/32], shift%32
		var at [256]uint32
		for _, h := range half {
			at[byte(h>>sh)]++
		}
		next := uint32(0)
		for d, c := range at {
			at[d], next = next, next+c
		}
		for _, p := range src {
			d := byte(half[p] >> sh)
			dst[at[d]] = p
			at[d]++
		}
		src, dst = dst, src
	}
	return src
}

// sortByLess orders the comparator path's index by key, then Less, then
// position, and returns the calls of Less.
func (rw *RunWriter) sortByLess(chunk []byte, cfg Config) int64 {
	rs := cfg.RecordSize
	n := len(chunk) / rs
	if cap(rw.idx) < n {
		rw.idx = make([]indexEntry, n)
	}
	idx := rw.idx[:n]
	for i := range idx {
		idx[i] = indexEntry{key: cfg.key(chunk[i*rs:][:rs]), pos: uint32(i)}
	}
	var comps int64
	at := func(e indexEntry) []byte { return chunk[int(e.pos)*rs:][:rs] }
	slices.SortFunc(idx, func(a, b indexEntry) int {
		switch {
		case a.key != b.key:
			return cmp.Compare(a.key, b.key)
		case a.pos == b.pos:
			return cmp.Compare(a.pos, b.pos)
		case cfg.tieBefore(at(a), at(b), a.pos < b.pos, &comps):
			return -1
		}
		return 1
	})
	return comps
}

// FanIn is the number of runs one merge reads at once under this
// configuration (iocost.Device.FanIn).
func (c *Config) FanIn() int {
	return c.dev().FanIn(c.Memory)
}

// chunkBuf is the window of a run's write and of the chunk read that
// fills the chunk (iocost.Device.ChunkBuf).
func (c *Config) chunkBuf() int {
	return c.dev().ChunkBuf(c.Memory)
}

func (c *Config) dev() iocost.Device { return iocost.DeviceOf(c.Disk, c.BufPages) }

// mergePass merges groups of up to FanIn runs, each group into its own
// output file. Group boundaries depend only on the run list, never on the
// worker count.
func mergePass(runs []Run, cfg Config, st *Stats) ([]Run, error) {
	ph := cfg.Trace.Child("merge-pass")
	defer ph.End()
	ph.SetAttr("pass", int64(st.MergePass))
	ph.SetAttr("runs", int64(len(runs)))

	fanin := cfg.FanIn()
	groups := (len(runs) + fanin - 1) / fanin
	next := make([]Run, groups)
	for gi := range next {
		next[gi].File = cfg.Reg.Create()
	}
	comps := make([]int64, groups)
	err := sched.Run(groups, sched.Options{
		Workers: cfg.Parallel,
		Name:    "merge-group",
		Span:    ph,
		Cancel:  cfg.Cancel,
	}, func(w, gi int) error {
		lo := gi * fanin
		n, c, uerr := mergeRuns(next[gi].File, runs[lo:min(lo+fanin, len(runs))], cfg)
		next[gi].Recs = n
		comps[gi] = c
		return uerr
	})
	for _, c := range comps {
		st.Comparisons += c
	}
	return next, err
}

// mergeRuns merges the given runs into out and returns the number of
// records written plus the comparisons spent. The runs and the output
// each take their share of Memory (iocost.Device.BufFor).
func mergeRuns(out *diskio.File, runs []Run, cfg Config) (int64, int64, error) {
	buf := cfg.dev().BufFor(cfg.Memory, len(runs)+1)
	w := recfile.NewRecWriter(out, cfg.RecordSize, buf)
	comps, err := Merge(runs, buf, cfg, func(rec []byte, _ int) error { return w.Write(rec) })
	if err == nil {
		err = w.Flush()
	}
	return w.Count(), comps, err
}

// Merge reads runs, a list in input order, through one heap of one
// cursor each, every cursor in requests of bufPages pages, and hands
// yield every record in sorted order with the index in runs of the run
// that holds it; records neither Key nor Less tells apart come in run
// order, so a merge of consecutive runs is stable. rec is valid only
// until yield returns, and an error from yield ends the merge with that
// error. Merge creates no file and removes none. It returns the calls of
// Less.
func Merge(runs []Run, bufPages int, cfg Config, yield func(rec []byte, run int) error) (int64, error) {
	var comps int64
	h := &mergeHeap{cfg: &cfg, comps: &comps}
	for i, rr := range runs {
		c := &cursor{
			r:   recfile.NewRecRangeReader(rr.File, cfg.RecordSize, bufPages, 0, rr.Recs),
			cfg: &cfg,
			ord: i,
		}
		ok, err := c.advance()
		if err != nil {
			return comps, err
		}
		if ok {
			h.items = append(h.items, c)
		}
	}
	heap.Init(h)
	chk := cfg.Cancel.Stride()
	for h.Len() > 0 {
		if err := chk.Point(); err != nil {
			return comps, err
		}
		c := h.items[0]
		if err := yield(c.rec, c.ord); err != nil {
			return comps, err
		}
		key := c.key
		ok, err := c.advance()
		switch {
		case err != nil:
			return comps, err
		case !ok:
			heap.Pop(h)
		// Without Less, (key, ordinal) is the whole order: a record that
		// repeats its predecessor's key is still the least, and the heap
		// stays as it is.
		case c.key != key || cfg.Less != nil:
			heap.Fix(h, 0)
		}
	}
	return comps, nil
}

// cursor is one run's read position in a merge: its current record (a
// view into the reader's frame), that record's key (extracted once, when
// the record is read) and the run's ordinal in the merge, the last
// tie-break.
type cursor struct {
	r   *recfile.RecReader
	rec []byte
	key uint64
	cfg *Config
	ord int
}

func (c *cursor) advance() (bool, error) {
	rec, ok, err := c.r.NextRef()
	if ok && err == nil {
		c.rec, c.key = rec, c.cfg.key(rec)
	}
	return ok, err
}

type mergeHeap struct {
	items []*cursor
	cfg   *Config
	comps *int64
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return h.cfg.tieBefore(a.rec, b.rec, a.ord < b.ord, h.comps)
}
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x interface{}) { h.items = append(h.items, x.(*cursor)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
