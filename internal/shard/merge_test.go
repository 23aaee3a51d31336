package shard

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"spatialjoin/internal/geom"
)

// framesOf returns partition part's pairs split into n frames of
// unequal length; pair i of the partition is {R: part, S: i}.
func framesOf(part, n int) [][]geom.Pair {
	var out [][]geom.Pair
	i := 0
	for f := 0; f < n; f++ {
		frame := make([]geom.Pair, f+2)
		for k := range frame {
			frame[k] = geom.Pair{R: uint64(part), S: uint64(i)}
			i++
		}
		out = append(out, frame)
	}
	return out
}

// inOrder is the sequence a merge of parts partitions must emit when
// partition p arrived as framesOf(p, n).
func inOrder(parts, n int) []geom.Pair {
	var out []geom.Pair
	for p := 0; p < parts; p++ {
		for _, f := range framesOf(p, n) {
			out = append(out, f...)
		}
	}
	return out
}

// sendPartition delivers partition part as framesOf(part, n) and seals
// it on behalf of shard.
func sendPartition(t *testing.T, st *joinState, allowed map[int]bool, shard, part, n int) {
	t.Helper()
	var count int64
	for _, f := range framesOf(part, n) {
		if err := st.addPairs(part, allowed, f); err != nil {
			t.Fatalf("frame for partition %d: %v", part, err)
		}
		count += int64(len(f))
	}
	if err := st.seal(part, shard, allowed, count); err != nil {
		t.Fatalf("seal of partition %d: %v", part, err)
	}
}

func isProtocolError(err error) bool {
	var pe *ProtocolError
	return errors.As(err, &pe)
}

// TestJoinStateReleasesInPartitionOrder pins the merge: whatever order
// the partitions seal in, their frames come out in partition order, each
// partition's as it arrived; a failed attempt's unsealed frames are
// dropped so the partition's re-send seals cleanly; and a seal whose
// count disagrees with its frames, or a frame or seal for a sealed or
// unassigned partition, is a protocol error.
func TestJoinStateReleasesInPartitionOrder(t *testing.T) {
	const parts, frames = 4, 3
	var got []geom.Pair
	st := newJoinState(parts, Stats{Partitions: parts}, newShardMetrics(nil), func(p geom.Pair) { got = append(got, p) })
	all := map[int]bool{0: true, 1: true, 2: true, 3: true}
	want := inOrder(parts, frames)
	per := len(want) / parts

	// Partition 1's first attempt dies after two frames; the failure
	// drops them and its re-send carries the whole partition.
	for _, f := range framesOf(1, frames)[:2] {
		if err := st.addPairs(1, all, f); err != nil {
			t.Fatal(err)
		}
	}
	st.noteFailure(7, []int{1})

	for i, part := range []int{2, 0, 3, 1} {
		sendPartition(t, st, all, map[int]int{1: 7}[part], part, frames)
		released := map[int]int{0: 0, 1: per, 2: per, 3: 4 * per}[i]
		if !slices.Equal(got, want[:released]) {
			t.Fatalf("after sealing %d: emitted %d pairs %v, want %v", part, len(got), got, want[:released])
		}
	}
	if st.results != int64(len(want)) || st.stats.Seals != parts || st.head != parts {
		t.Fatalf("results %d, seals %d, head %d; want %d, %d, %d", st.results, st.stats.Seals, st.head, len(want), parts, parts)
	}
	if st.stats.Recoveries != 1 {
		t.Fatalf("recoveries %d, want 1: the re-sent partition's seal closes shard 7's window", st.stats.Recoveries)
	}

	// Refusals, on a fresh merge with partition 0 sealed and partition 3
	// outside the attempt's assignment.
	st = newJoinState(parts, Stats{Partitions: parts}, newShardMetrics(nil), func(geom.Pair) {})
	attempt := map[int]bool{0: true, 1: true, 2: true}
	sendPartition(t, st, attempt, 0, 0, frames)
	for name, err := range map[string]error{
		"frame for a sealed partition":      st.addPairs(0, attempt, framesOf(0, 1)[0]),
		"seal for a sealed partition":       st.seal(0, 0, attempt, 0),
		"frame for an unassigned partition": st.addPairs(3, attempt, framesOf(3, 1)[0]),
		"seal for an unassigned partition":  st.seal(3, 0, attempt, 0),
	} {
		if !isProtocolError(err) {
			t.Errorf("%s: got %v, want a ProtocolError", name, err)
		}
	}
	for _, f := range framesOf(1, frames) {
		if err := st.addPairs(1, attempt, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.seal(1, 0, attempt, int64(per)+1); !isProtocolError(err) {
		t.Errorf("seal count %d over %d arrived pairs: got %v, want a ProtocolError", per+1, per, err)
	}
	if st.sealed[1] || st.results != int64(per) {
		t.Errorf("a refused seal released partition 1: sealed %v, results %d", st.sealed[1], st.results)
	}
}

// TestJoinStateConcurrentShards hammers the merge the way a join drives
// it: one goroutine per simulated shard adds its partitions' frames and
// seals them in ascending order, interleaved with the other shards by
// the scheduler. The emitted sequence must be partition order on every
// run. Under -race it is the hammer of joinState's "guarded by mu"
// fields.
func TestJoinStateConcurrentShards(t *testing.T) {
	const parts, shards, frames = 24, 4, 5
	want := inOrder(parts, frames)
	for run := 0; run < 50; run++ {
		var got []geom.Pair
		st := newJoinState(parts, Stats{Partitions: parts}, newShardMetrics(nil), func(p geom.Pair) { got = append(got, p) })
		// Deal the partitions out at random, as assignShards' packing
		// would by cost; each shard runs its own in ascending order.
		rng := rand.New(rand.NewSource(int64(run)))
		owned := make([][]int, shards)
		for p := 0; p < parts; p++ {
			s := rng.Intn(shards)
			owned[s] = append(owned[s], p)
		}
		var wg sync.WaitGroup
		errs := make([]error, shards)
		for id, ps := range owned {
			wg.Add(1)
			go func(id int, ps []int) {
				defer wg.Done()
				allowed := make(map[int]bool, len(ps))
				for _, p := range ps {
					allowed[p] = true
				}
				for _, p := range ps {
					var count int64
					for _, f := range framesOf(p, frames) {
						if err := st.addPairs(p, allowed, f); err != nil {
							errs[id] = err
							return
						}
						count += int64(len(f))
					}
					if err := st.seal(p, id, allowed, count); err != nil {
						errs[id] = err
						return
					}
				}
			}(id, ps)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		st.locked(func() {
			if !slices.Equal(got, want) {
				t.Fatalf("run %d: emitted %d pairs out of partition order", run, len(got))
			}
			if st.stats.Seals != parts || st.results != int64(len(want)) {
				t.Fatalf("run %d: seals %d, results %d; want %d, %d", run, st.stats.Seals, st.results, parts, len(want))
			}
		})
	}
}
