package sched

import (
	"reflect"
	"testing"
)

// TestPackLPT pins the packing rule and its tie-breaks: the shard
// assignment and PBSM's tile table are both this function's output, and
// a coordinator and its workers must agree on it across processes.
func TestPackLPT(t *testing.T) {
	for _, c := range []struct {
		name    string
		weights []float64
		bins    int
		want    [][]int
	}{
		{"descending weight, lightest bin", []float64{1, 5, 3, 4}, 2, [][]int{{1, 0}, {3, 2}}},
		{"equal weights go by item index, equal loads by bin index", []float64{2, 2, 2, 2, 2}, 3, [][]int{{0, 3}, {1, 4}, {2}}},
		{"more bins than weights leaves the last bins empty", []float64{7, 9}, 4, [][]int{{1}, {0}, nil, nil}},
		{"zero weights follow the lightest bin", []float64{0, 3, 0, 1}, 2, [][]int{{1}, {3, 0, 2}}},
		{"all zero lands on bin 0", []float64{0, 0, 0}, 2, [][]int{{0, 1, 2}, nil}},
		{"one bin takes everything, heaviest first", []float64{1, 2, 3}, 1, [][]int{{2, 1, 0}}},
		{"fewer than one bin is one bin", []float64{4}, 0, [][]int{{0}}},
		{"no weights", nil, 2, [][]int{nil, nil}},
	} {
		got := PackLPT(c.weights, c.bins)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: PackLPT(%v, %d) = %v, want %v", c.name, c.weights, c.bins, got, c.want)
		}
		if again := PackLPT(c.weights, c.bins); !reflect.DeepEqual(again, got) {
			t.Errorf("%s: second call returned %v, first %v", c.name, again, got)
		}
	}
}
