// Package sweep implements the internal (main-memory) spatial join
// algorithms of the paper: simple nested loops, the list-based Plane
// Sweep Intersection-Test of Brinkhoff, Kriegel & Seeger [BKS 93] used by
// the original PBSM, and the trie-based plane sweep of §3.2.2 whose
// sweep-line status is an interval trie.
//
// All algorithms compute the set of intersecting pairs (r, s), r ∈ R,
// s ∈ S, and report each pair exactly once through the emit callback.
// They are the pluggable building block of PBSM's join phase and of SHJ's
// bucket joins (both through package stripe) and of S³J's partition
// joins, and the direct subject of the paper's Figure 4, Figure 5 and
// Figure 12 experiments. The two sweeps differ only in their sweep-line
// Status, a list or an interval trie, which SSSJ's streaming sweep uses
// too.
package sweep

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"spatialjoin/internal/geom"
)

// Emit receives one intersecting result pair.
type Emit func(r, s geom.KPE)

// Algorithm is an in-memory spatial intersection join. Join may reorder
// the input slices but never adds or removes elements. The plane sweeps
// sort each input by (geom.OrderedKey(XL), input position): a total,
// stable order in which equal left edges keep the order they came in and
// −0 precedes +0. SSSJ's external sort orders its runs the same way.
type Algorithm interface {
	Name() string
	// Join reports every intersecting pair between rs and ss.
	Join(rs, ss []geom.KPE, emit Emit)
	// Tests returns the cumulative number of candidate tests performed
	// across all Join calls, a machine-independent CPU proxy.
	Tests() int64
	// Touches returns the cumulative number of status-structure node
	// touches across all Join calls: list entries scanned for the list
	// sweep, trie nodes visited for the trie sweep. Where Tests counts
	// only y-overlap comparisons, Touches exposes the traversal work the
	// status organization itself causes — the quantity behind the
	// trie-vs-list crossover of §3.2.2.
	Touches() int64
}

// Kind names an internal algorithm for configuration surfaces.
type Kind string

const (
	// NestedLoopsKind selects the quadratic nested-loops join.
	NestedLoopsKind Kind = "nested"
	// ListKind selects the list-based Plane Sweep Intersection-Test.
	ListKind Kind = "list"
	// TrieKind selects the interval-trie plane sweep.
	TrieKind Kind = "trie"
)

// Valid reports whether New accepts k: one of the three kinds, or ""
// for the default.
func (k Kind) Valid() bool {
	switch k {
	case "", NestedLoopsKind, ListKind, TrieKind:
		return true
	}
	return false
}

// Validate returns nil for a Valid kind, and otherwise the error every
// configuration surface wraps in its joinerr to refuse it.
func (k Kind) Validate() error {
	if k.Valid() {
		return nil
	}
	return fmt.Errorf("unknown Config.Algorithm %q: want %q, %q or %q", k, NestedLoopsKind, ListKind, TrieKind)
}

// New returns a fresh Algorithm of the given kind; "" yields the list
// sweep, the original PBSM default. New panics on a kind that is not
// Valid: every configuration surface refuses one before a join starts.
func New(k Kind) Algorithm {
	switch k {
	case NestedLoopsKind:
		return &NestedLoops{}
	case TrieKind:
		return &TrieSweep{}
	case ListKind, "":
		return &ListSweep{}
	}
	panic(fmt.Sprintf("sweep: unknown kind %q", k))
}

// NestedLoops tests every pair. It is only competitive for the very small
// partitions produced by S³J (§4.4.1, Figure 12).
type NestedLoops struct {
	tests int64
}

// Name implements Algorithm.
func (a *NestedLoops) Name() string { return string(NestedLoopsKind) }

// Tests implements Algorithm.
func (a *NestedLoops) Tests() int64 { return a.tests }

// Touches implements Algorithm. Nested loops has no status structure;
// every candidate test is exactly one touch.
func (a *NestedLoops) Touches() int64 { return a.tests }

// Join implements Algorithm.
func (a *NestedLoops) Join(rs, ss []geom.KPE, emit Emit) {
	for i := range rs {
		r := rs[i].Rect
		for j := range ss {
			a.tests++
			if r.Intersects(ss[j].Rect) {
				emit(rs[i], ss[j])
			}
		}
	}
}

// lowHalf masks the low half of a sort word, where the position goes.
const lowHalf = 1<<32 - 1

// radixMin is the size from which sortWords sorts by radix. Below it
// pdqsort is faster: the radix pays for its counting arrays whatever the
// size. On LA_RR segments (BenchmarkSortByXL, 2 vCPUs) 16 records sort
// at 17–19 ns each by pdqsort and 117–125 by radix, and the two cross
// between 192 and 384 records.
const radixMin = 256

// sortByXL puts ks in the sweep order, (geom.OrderedKey(XL), position in
// ks), through keys, the scratch of the algorithm calling it, and returns
// keys grown to len(ks) at least. It sorts one word per record instead of
// the 48-byte records: the key's high half above the position. The records
// then move once, in place, and every run of equal high halves is put in
// order on the low half the same way — rare on real data, but the whole
// input when every left edge lies within a few ulps of the others. Positions
// are 32-bit, as in package stripe's index, so it panics on 2³² records
// or more; no caller holds that many in memory (the stripe index refuses
// them with an error before any sweep). The radix's second buffer is not
// keys but one taken from a package free list (takeScratch), so a join's
// fresh algorithm holds 8 B per record and no more.
func sortByXL(ks []geom.KPE, keys []uint64) []uint64 {
	checkPositions(len(ks))
	if cap(keys) < len(ks) {
		keys = make([]uint64, max(len(ks), 2*cap(keys)))
	}
	keys = keys[:len(ks)]
	for i := range ks {
		keys[i] = geom.OrderedKey(ks[i].Rect.XL)&^lowHalf | uint64(i)
	}
	sortWords(ks, keys)
	for a := 0; a < len(ks); {
		b := a + 1
		for b < len(ks) && keys[b]>>32 == keys[a]>>32 {
			b++
		}
		if b-a > 1 {
			sortRun(ks[a:b], keys[a:b])
		}
		a = b
	}
	return keys
}

// checkPositions panics on n ≥ 2³² records, the bound of the stripe
// index too: past it a position no longer fits the low half of a word.
func checkPositions(n int) {
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("sweep: %d records exceed the sort's 32-bit positions", n))
	}
}

// sortRun orders a run of records whose keys share their high half, which
// sortWords left in position order, by the low half; ties keep that order.
func sortRun(ks []geom.KPE, keys []uint64) {
	sorted := true
	for i := range ks {
		keys[i] = geom.OrderedKey(ks[i].Rect.XL)<<32 | uint64(i)
		sorted = sorted && (i == 0 || keys[i] > keys[i-1])
	}
	if !sorted {
		sortWords(ks, keys)
	}
}

// sortWords sorts keys, words whose low halves are positions in ks in
// ascending order, and moves every record to where the word carrying its
// position ended up. From radixMin words on, the sort is radixHigh;
// below, pdqsort. The moves follow the cycles of that permutation in
// place, so no second copy of ks is needed; a word whose low half is its
// own index is done, which is how each one is marked once its record has
// arrived. High halves survive.
func sortWords(ks []geom.KPE, keys []uint64) {
	if len(keys) < radixMin {
		slices.Sort(keys)
	} else {
		radixHigh(keys)
	}
	for i := range keys {
		if int(keys[i]&lowHalf) == i {
			continue
		}
		first := ks[i]
		for j := i; ; {
			src := int(keys[j] & lowHalf)
			keys[j] = keys[j]&^lowHalf | uint64(j)
			if src == i {
				ks[j] = first
				break
			}
			ks[j] = ks[src]
			j = src
		}
	}
}

// radixHigh sorts keys, whose low halves ascend, by a stable
// least-significant-digit radix over the high half alone: stability keeps
// equal high halves in low-half order, so the words end in full order.
// One pass counts every byte of the high half and the bits that differ
// between some two keys; a scatter pass runs only for the bytes that
// vary (as in geom.SortPairs and extsort's sortByKey).
func radixHigh(keys []uint64) {
	var at [4][256]uint32
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or, and = or|k, and&k
		at[0][byte(k>>32)]++
		at[1][byte(k>>40)]++
		at[2][byte(k>>48)]++
		at[3][byte(k>>56)]++
	}
	varies := (or ^ and) >> 32
	if varies == 0 {
		return
	}
	tmp := takeScratch(len(keys))
	src, dst := keys, tmp
	for b := range at {
		if varies>>(8*b)&0xff == 0 {
			continue
		}
		shift, to := 32+8*b, &at[b]
		next := uint32(0)
		for d, n := range to {
			to[d], next = next, next+n
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[to[d]] = k
			to[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
	giveScratch(tmp)
}

// scratch is the free list of radixHigh's second buffers: one per sort
// running at once, each kept at the largest size it has served, for the
// life of the process. It is not in the algorithm because every join
// builds fresh ones (stripe.Exec.Run), so scratch held there would be
// allocated again per join. It is not a sync.Pool because a pool drops
// what it holds over two collections, and one buffer in four at random
// under the race detector, and a repeated sort must not allocate.
var scratch struct {
	mu   sync.Mutex
	free [][]uint64 // guarded by mu
}

// takeScratch returns a buffer of n words from the free list, grown by
// doubling when the one on top is too small.
func takeScratch(n int) []uint64 {
	var buf []uint64
	scratch.mu.Lock()
	if top := len(scratch.free) - 1; top >= 0 {
		buf = scratch.free[top]
		scratch.free = scratch.free[:top]
	}
	scratch.mu.Unlock()
	if cap(buf) < n {
		buf = make([]uint64, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// giveScratch puts buf back on the free list.
func giveScratch(buf []uint64) {
	scratch.mu.Lock()
	scratch.free = append(scratch.free, buf)
	scratch.mu.Unlock()
}
