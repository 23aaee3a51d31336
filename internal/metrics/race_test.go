package metrics

import (
	"fmt"
	"sync"
	"testing"
)

// TestCounterVecWithConcurrent hammers one counter family from many
// goroutines — resolving children through With while a scraper loop
// snapshots the registry — and then checks the totals. Run under
// `go test -race` this exercises the vec.children and Registry.names
// guarded-by contracts end to end.
func TestCounterVecWithConcurrent(t *testing.T) {
	r := New()
	cv := r.CounterVec("race.hits", "shard")
	const (
		goroutines = 8
		iters      = 400
		labels     = 5
	)
	stop := make(chan struct{})
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cv.With(fmt.Sprintf("s%d", (g+i)%labels)).Inc()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scrape.Wait()

	var total int64
	for l := 0; l < labels; l++ {
		total += cv.With(fmt.Sprintf("s%d", l)).Value()
	}
	if want := int64(goroutines * iters); total != want {
		t.Fatalf("counter family total %d, want %d", total, want)
	}
	// Every label must appear exactly once in the final snapshot.
	seen := make(map[string]bool)
	for _, p := range r.Snapshot().Points {
		if p.Name == "race.hits" {
			if seen[p.Label] {
				t.Fatalf("label %q snapshotted twice", p.Label)
			}
			seen[p.Label] = true
		}
	}
	if len(seen) != labels {
		t.Fatalf("snapshot carries %d labels, want %d", len(seen), labels)
	}
}

// TestGaugeVecWithConcurrent resolves the same child from many
// goroutines: With must hand every caller the SAME instrument, so the
// last Set wins and no child is duplicated.
func TestGaugeVecWithConcurrent(t *testing.T) {
	r := New()
	gv := r.GaugeVec("race.depth", "queue")
	const goroutines = 8
	var wg sync.WaitGroup
	children := make([]*Gauge, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			children[g] = gv.With("q0")
			children[g].Set(float64(g))
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if children[g] != children[0] {
			t.Fatal("With returned distinct instruments for one label")
		}
	}
}
