package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialjoin/internal/diskio"
)

func TestNilRecorderAndSpanAreNoOps(t *testing.T) {
	var r *Recorder
	sp := r.Begin("join")
	if sp != nil {
		t.Fatalf("nil recorder Begin = %v, want nil span", sp)
	}
	// None of these may panic.
	sp.AddRecords(10)
	sp.SetAttr("k", 1)
	sp.End()
	child := sp.Child("x")
	if child != nil {
		t.Fatalf("nil span Child = %v, want nil", child)
	}
	r.IOEvent("retry", "f")
	r.Instant("cancel")
	r.SetIOSource(nil)
	if r.Spans() != nil {
		t.Fatal("nil recorder Spans must return nil")
	}
	var buf bytes.Buffer
	if err := r.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	if r.Coverage() != 1 {
		t.Fatalf("nil recorder coverage = %v", r.Coverage())
	}
}

func TestSpanHierarchyAndIODeltas(t *testing.T) {
	r := New()
	var fake diskio.Stats
	r.SetIOSource(func() diskio.Stats { return fake })

	root := r.Begin("join")
	p := root.Child("partition")
	fake.PagesRead += 10
	fake.ReadRequests += 2
	p.AddRecords(100)
	p.End()
	j := root.Child("join-phase")
	fake.PagesWritten += 5
	j.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["partition"].Parent != byName["join"].ID {
		t.Fatal("partition should be a child of join")
	}
	if byName["partition"].IO.PagesRead != 10 || byName["partition"].IO.ReadRequests != 2 {
		t.Fatalf("partition IO delta = %+v", byName["partition"].IO)
	}
	if byName["partition"].Records != 100 {
		t.Fatalf("partition records = %d", byName["partition"].Records)
	}
	if byName["join-phase"].IO.PagesWritten != 5 || byName["join-phase"].IO.PagesRead != 0 {
		t.Fatalf("join-phase IO delta = %+v", byName["join-phase"].IO)
	}
	if byName["join"].IO.PagesRead != 10 || byName["join"].IO.PagesWritten != 5 {
		t.Fatalf("root IO delta = %+v", byName["join"].IO)
	}
}

func TestIOEventCountsAndSurfacesInExports(t *testing.T) {
	r := New()
	sp := r.Begin("join")
	r.IOEvent("retry", "part-3.rec")
	r.IOEvent("retry", "part-4.rec")
	r.Instant("shard-kill", Attr{Key: "shard", Val: 1})
	sp.End()
	var tree bytes.Buffer
	if err := r.WriteTree(&tree); err != nil {
		t.Fatal(err)
	}
	// One tally line for every instant, I/O or not: a killed shard is not
	// an I/O event.
	if !strings.Contains(tree.String(), "\nevents: retry×2 shard-kill×1\n") {
		t.Fatalf("tree missing the events line:\n%s", tree.String())
	}
	var chrome bytes.Buffer
	if err := r.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	retries := 0
	for _, ev := range events {
		if ev["ph"] == "i" && ev["name"] == "retry" {
			retries++
		}
	}
	if retries != 2 {
		t.Fatalf("Chrome trace retry instants = %d, want 2", retries)
	}
}

func TestChromeTraceParsesAndNests(t *testing.T) {
	r := New()
	root := r.Begin("join")
	a := root.Child("partition")
	time.Sleep(time.Millisecond)
	a.End()
	b := root.Child("sweep")
	time.Sleep(time.Millisecond)
	b.End()
	root.End()

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var complete []map[string]any
	for _, ev := range events {
		if ev["ph"] == "X" {
			complete = append(complete, ev)
		}
	}
	if len(complete) != 3 {
		t.Fatalf("got %d complete events, want 3", len(complete))
	}
	// Sequential children must share the root's lane (tid) so the
	// viewer nests them under the root bar.
	tids := map[string]float64{}
	for _, ev := range complete {
		tids[ev["name"].(string)] = ev["tid"].(float64)
	}
	if tids["partition"] != tids["join"] || tids["sweep"] != tids["join"] {
		t.Fatalf("sequential spans split across lanes: %v", tids)
	}
}

func TestChromeTraceOverlappingSpansGetDistinctLanes(t *testing.T) {
	r := New()
	root := r.Begin("join")
	// Two overlapping children (parallel workers): they cannot share a
	// lane or the viewer mis-nests one inside the other.
	w1 := root.Child("pair")
	w2 := root.Child("pair")
	time.Sleep(time.Millisecond)
	w1.End()
	w2.End()
	root.End()

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	lanes := map[float64]int{}
	for _, ev := range events {
		if ev["ph"] == "X" && ev["name"] == "pair" {
			lanes[ev["tid"].(float64)]++
		}
	}
	if len(lanes) != 2 {
		t.Fatalf("overlapping spans on %d lanes, want 2: %v", len(lanes), lanes)
	}
}

func TestCoverage(t *testing.T) {
	r := New()
	root := r.Begin("join")
	c := root.Child("phase")
	time.Sleep(5 * time.Millisecond)
	c.End()
	root.End()
	if cov := r.Coverage(); cov < 0.5 {
		t.Fatalf("coverage = %v, want back-to-back child to cover most of root", cov)
	}

	// A root whose single child covers a sliver must report low coverage.
	r2 := New()
	root2 := r2.Begin("join")
	c2 := root2.Child("phase")
	c2.End()
	time.Sleep(10 * time.Millisecond)
	root2.End()
	if cov := r2.Coverage(); cov > 0.5 {
		t.Fatalf("coverage = %v, want low for mostly-uncovered root", cov)
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	r := New()
	root := r.Begin("join")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := root.Child("pair")
				sp.AddRecords(1)
				sp.End()
				r.IOEvent("retry", "f")
			}
		}()
	}
	wg.Wait()
	root.End()
	spans := r.Spans()
	// 1 root + 800 pairs + 800 instant events.
	if len(spans) != 1601 {
		t.Fatalf("spans = %d, want 1601", len(spans))
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNilSpanChildEnd(b *testing.B) {
	var root *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := root.Child("x")
		sp.AddRecords(1)
		sp.End()
	}
}

func BenchmarkActiveSpanChildEnd(b *testing.B) {
	r := New()
	root := r.Begin("join")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := root.Child("x")
		sp.AddRecords(1)
		sp.End()
	}
}
