// Package quadtree implements the MX-CIF quadtree of Samet and the
// internal spatial join of §4.1 of the paper: a synchronized pre-order
// traversal of two MX-CIF quadtrees that joins every pair of nodes lying
// on a common root path. S³J is the external, level-record-based version of
// exactly this algorithm, so the quadtree join doubles as the reference
// oracle for S³J's semantics in the test suite.
package quadtree

import (
	"spatialjoin/internal/geom"
	"spatialjoin/internal/sfc"
)

// Tree is an MX-CIF quadtree over the unit data space. Each rectangle is
// stored at the node on the deepest level whose region covers it; nodes
// hold any number of rectangles and need not be leaves.
type Tree struct {
	root     *Node
	maxLevel int
	size     int
}

// Node is one quadtree node. Children are indexed by (2*ybit + xbit) of
// the next level's cell coordinates.
type Node struct {
	children [4]*Node
	items    []geom.KPE
	level    int
	ix, iy   uint32
}

// New creates an empty tree with the given maximum depth; depth <= 0
// selects sfc.MaxLevel.
func New(maxLevel int) *Tree {
	if maxLevel <= 0 || maxLevel > sfc.MaxLevel {
		maxLevel = sfc.MaxLevel
	}
	return &Tree{root: &Node{}, maxLevel: maxLevel}
}

// Len returns the number of stored rectangles.
func (t *Tree) Len() int { return t.size }

// Insert stores k at the deepest node whose cell covers its rectangle.
func (t *Tree) Insert(k geom.KPE) {
	level, ix, iy := sfc.ContainmentLevel(k.Rect, t.maxLevel)
	n := t.root
	for l := 1; l <= level; l++ {
		shift := uint(level - l)
		cx := (ix >> shift) & 1
		cy := (iy >> shift) & 1
		idx := cy<<1 | cx
		c := n.children[idx]
		if c == nil {
			c = &Node{level: l, ix: ix >> shift, iy: iy >> shift}
			n.children[idx] = c
		}
		n = c
	}
	n.items = append(n.items, k)
	t.size++
}

// Query reports every stored rectangle intersecting q, visiting only
// nodes whose cell overlaps q.
func (t *Tree) Query(q geom.Rect, visit func(geom.KPE)) {
	t.query(t.root, q, visit)
}

func (t *Tree) query(n *Node, q geom.Rect, visit func(geom.KPE)) {
	for _, k := range n.items {
		if k.Rect.Intersects(q) {
			visit(k)
		}
	}
	for _, c := range n.children {
		if c != nil && sfc.CellRect(c.ix, c.iy, c.level).Intersects(q) {
			t.query(c, q, visit)
		}
	}
}

// Join reports every intersecting pair between the rectangles of tr and
// ts through emit, with tr's element first. It performs the synchronized
// pre-order traversal of §4.1: a node is joined against the other tree's
// nodes on the path from the root to the corresponding cell, inclusive.
// Because rectangles are stored without replication, no pair is reported
// twice. Join returns the number of candidate tests performed.
func Join(tr, ts *Tree, emit func(r, s geom.KPE)) int64 {
	j := joiner{emit: emit}
	j.walk(tr.root, ts.root)
	return j.tests
}

type joiner struct {
	emit  func(r, s geom.KPE)
	pathR [][]geom.KPE // item lists of R-nodes on the current root path
	pathS [][]geom.KPE
	tests int64
}

// walk visits the cell shared by nr and ns (either may be nil when that
// tree has no node for the cell) and recurses into the union of their
// children.
func (j *joiner) walk(nr, ns *Node) {
	// Join the new R-node against every S ancestor on the path plus the
	// S-node of the same cell; then the new S-node against every R
	// ancestor (same-cell pairs already covered above).
	if nr != nil {
		for _, items := range j.pathS {
			j.cross(nr.items, items)
		}
		if ns != nil {
			j.cross(nr.items, ns.items)
		}
	}
	if ns != nil {
		for _, items := range j.pathR {
			j.cross(items, ns.items)
		}
	}

	var pushR, pushS []geom.KPE
	if nr != nil {
		pushR = nr.items
	}
	if ns != nil {
		pushS = ns.items
	}
	j.pathR = append(j.pathR, pushR)
	j.pathS = append(j.pathS, pushS)
	for idx := 0; idx < 4; idx++ {
		var cr, cs *Node
		if nr != nil {
			cr = nr.children[idx]
		}
		if ns != nil {
			cs = ns.children[idx]
		}
		if cr != nil || cs != nil {
			j.walk(cr, cs)
		}
	}
	j.pathR = j.pathR[:len(j.pathR)-1]
	j.pathS = j.pathS[:len(j.pathS)-1]
}

// cross joins R-items against S-items.
func (j *joiner) cross(rs, ss []geom.KPE) {
	for i := range rs {
		for k := range ss {
			j.tests++
			if rs[i].Rect.Intersects(ss[k].Rect) {
				j.emit(rs[i], ss[k])
			}
		}
	}
}
