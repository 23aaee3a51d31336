// Package jointest is the test support the join packages share: the
// nested-loops oracle every method, internal algorithm and index is
// checked against, and the helpers that compare a result with it.
package jointest

import (
	"sort"
	"testing"

	"spatialjoin/internal/geom"
)

// Naive computes the intersection join of rs and ss by nested loops and
// returns it sorted — the ground truth.
func Naive(rs, ss []geom.KPE) []geom.Pair {
	var out []geom.Pair
	for _, r := range rs {
		for _, s := range ss {
			if r.Rect.Intersects(s.Rect) {
				out = append(out, geom.Pair{R: r.ID, S: s.ID})
			}
		}
	}
	SortPairs(out)
	return out
}

// SortPairs sorts ps by (R, S), the order Naive returns.
func SortPairs(ps []geom.Pair) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}

// AssertEqual sorts got and fails the test unless it equals the sorted
// want pair for pair, so a duplicate fails as surely as a missing pair.
func AssertEqual(t testing.TB, got, want []geom.Pair) {
	t.Helper()
	SortPairs(got)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: got %v want %v", i, got[i], want[i])
		}
	}
}
