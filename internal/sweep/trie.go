package sweep

import "spatialjoin/internal/geom"

// TrieSweep is the plane-sweep join of §3.2.2 whose sweep-line status is
// organized in interval *tries* [Knu 70] instead of a list. Each active
// rectangle is stored, keyed by its y-interval, at the trie node whose
// span is the shortest one covering the interval — the one-dimensional
// analogue of an MX-CIF quadtree. Probing a rectangle visits only the
// nodes whose span overlaps the probe's y-range, so for large partitions
// and selective joins far fewer candidate tests are performed than with a
// list. Compared to the dynamic interval trees suggested for SSSJ, the
// trie needs no rebalancing: expired entries are removed lazily while
// node item lists are scanned.
type TrieSweep struct {
	tests   int64
	touches int64
	// Depth is the maximum trie depth (bits of the normalized y-keys).
	// Zero selects DefaultTrieDepth.
	Depth int
	// keys is the sort's scratch, as in ListSweep.
	keys []uint64
}

// DefaultTrieDepth bounds the interval-trie depth. 16 bits resolve the
// partition's y-extent to 1/65536, below which node spans stop
// discriminating rectangles usefully.
const DefaultTrieDepth = 16

// Name implements Algorithm.
func (a *TrieSweep) Name() string { return string(TrieKind) }

// Tests implements Algorithm.
func (a *TrieSweep) Tests() int64 { return a.tests }

// Touches implements Algorithm: trie nodes visited by probe walks. The
// trie touches only nodes whose span overlaps the probe's y-range, so
// this grows far slower than the list's entry scans on large partitions.
func (a *TrieSweep) Touches() int64 { return a.touches }

// Join implements Algorithm.
func (a *TrieSweep) Join(rs, ss []geom.KPE, emit Emit) {
	if len(rs) == 0 || len(ss) == 0 {
		return
	}
	a.keys = sortByXL(rs, a.keys)
	a.keys = sortByXL(ss, a.keys)
	a.sweep(rs, ss, emit)
}

// sweep joins rs and ss, each non-empty and in sweep order, with y-keys
// normalized to the joint y-extent of both inputs, so the trie
// discriminates within the partition actually being joined.
func (a *TrieSweep) sweep(rs, ss []geom.KPE, emit Emit) {
	ymin, ymax := rs[0].Rect.YL, rs[0].Rect.YH
	for _, side := range [][]geom.KPE{rs, ss} {
		for _, k := range side {
			ymin = min(ymin, k.Rect.YL)
			ymax = max(ymax, k.Rect.YH)
		}
	}
	planeSweep(rs, ss,
		newTrieStatus(ymin, ymax, a.Depth, &a.tests, &a.touches),
		newTrieStatus(ymin, ymax, a.Depth, &a.tests, &a.touches), emit)
}

// trieNode is a node of the interval trie: the rectangles assigned to its
// span and its two halves.
type trieNode struct {
	children [2]*trieNode
	items    []geom.KPE
}

// limit is the largest key, 2^bits − 1.
func (st *Status) limit() float64 { return float64(uint32(1)<<uint(st.bits) - 1) }

// key maps y to its trie key, clamped to [0, limit].
func (st *Status) key(y float64) uint32 {
	v := (y - st.ymin) * st.inv
	if v <= 0 {
		return 0
	}
	return uint32(min(v, st.limit()))
}

// insert stores k at the deepest node whose span covers its y-interval.
func (st *Status) insert(k geom.KPE) {
	lo, hi := st.key(k.Rect.YL), st.key(k.Rect.YH)
	n := st.root
	for d := st.bits - 1; d >= 0; d-- {
		bl := (lo >> uint(d)) & 1
		if bl != (hi>>uint(d))&1 {
			break // interval crosses this node's midpoint: store here
		}
		c := n.children[bl]
		if c == nil {
			c = &trieNode{}
			n.children[bl] = c
		}
		n = c
	}
	n.items = append(n.items, k)
}

// walk visits node n whose span is [base, base + 2^depthLeft) on the key
// grid, scanning its items and pruning subtrees outside [qlo, qhi].
func (st *Status) walk(n *trieNode, depthLeft int, base, qlo, qhi uint32, probe geom.KPE, probeIsS bool, emit Emit) {
	*st.touches++
	if before := len(n.items); before > 0 { // most nodes on a path hold nothing
		n.items = st.scan(n.items, probe, probeIsS, emit)
		st.n -= before - len(n.items)
	}
	if depthLeft == 0 {
		return
	}
	half := uint32(1) << uint(depthLeft-1)
	if c := n.children[0]; c != nil && qlo < base+half {
		st.walk(c, depthLeft-1, base, qlo, qhi, probe, probeIsS, emit)
	}
	if c := n.children[1]; c != nil && qhi >= base+half {
		st.walk(c, depthLeft-1, base+half, qlo, qhi, probe, probeIsS, emit)
	}
}
