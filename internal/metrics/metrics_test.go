package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x.y")
	g := r.Gauge("x.z")
	h := r.Histogram("x.h")
	cv := r.CounterVec("x.cv", "k")
	gv := r.GaugeVec("x.gv", "k")
	if c != nil || g != nil || h != nil || cv != nil || gv != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	g.SetMax(9)
	h.Observe(42)
	cv.With("a").Inc()
	gv.With("a").Set(1)
	if c.Value() != 0 || g.Value() != 0 || gv.With("a").Value() != 0 || h.View().Count != 0 {
		t.Fatal("nil handles must read zero")
	}
	if got := r.Snapshot(); len(got.Points) != 0 {
		t.Fatalf("nil registry snapshot: %d points", len(got.Points))
	}
	var p *Progress
	p.SetTotal(10)
	p.Add(1)
	p.Done()
	if p.Fraction() != 0 {
		t.Fatal("nil progress must read zero")
	}
}

func TestRegistryBasics(t *testing.T) {
	r := New()
	c := r.Counter("io.reads")
	c.Add(3)
	c.Inc()
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if again := r.Counter("io.reads"); again != c {
		t.Fatal("re-registration must return the same handle")
	}
	g := r.Gauge("q.depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
	frac := r.Gauge("frac")
	frac.Set(0.5)
	frac.SetMax(0.25) // lower: ignored
	if got := frac.Value(); got != 0.5 {
		t.Fatalf("SetMax lowered the gauge: %v", got)
	}
	frac.SetMax(0.75)
	if got := frac.Value(); got != 0.75 {
		t.Fatalf("SetMax = %v, want 0.75", got)
	}
	h := r.Histogram("lat")
	for _, v := range []float64{0.5, 1, 2, 3, 1000} {
		h.Observe(v)
	}
	hv := h.View()
	if hv.Count != 5 || hv.Min != 0.5 || hv.Max != 1000 {
		t.Fatalf("hist view: %+v", hv)
	}
	if hv.Buckets[0] != 1 || hv.Buckets[1] != 1 || hv.Buckets[2] != 2 {
		t.Fatalf("buckets: %v", hv.Buckets[:4])
	}
	cv := r.CounterVec("pool.done", "pool")
	cv.With("a").Add(2)
	cv.With("b").Inc()
	if cv.With("a").Value() != 2 || cv.With("b").Value() != 1 {
		t.Fatal("vec children diverged")
	}

	s := r.Snapshot()
	if got := s.Value("io.reads"); got != 4 {
		t.Fatalf("snapshot counter = %v", got)
	}
	if got := s.ValueL("pool.done", "b"); got != 1 {
		t.Fatalf("snapshot vec child = %v", got)
	}
	if got := s.Hist("lat"); got.Count != 5 {
		t.Fatalf("snapshot hist count = %d", got.Count)
	}
	if got := s.Value("no.such"); got != 0 {
		t.Fatalf("absent point = %v, want 0", got)
	}
	// Deterministic ordering.
	for i := 1; i < len(s.Points); i++ {
		a, b := s.Points[i-1], s.Points[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Label >= b.Label) {
			t.Fatalf("snapshot unsorted at %d: %v %v", i, a, b)
		}
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := New()
	r.Counter("a.b")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a.b as gauge after counter must panic")
		}
	}()
	r.Gauge("a.b")
}

func TestSnapshotSubDeltas(t *testing.T) {
	r := New()
	c := r.Counter("c.n")
	g := r.Gauge("g.n")
	h := r.Histogram("h.n")
	c.Add(10)
	g.Set(5)
	h.Observe(4)
	before := r.Snapshot()
	c.Add(7)
	g.Set(2)
	h.Observe(8)
	h.Observe(16)
	delta := r.Snapshot().Sub(before)
	if got := delta.Value("c.n"); got != 7 {
		t.Fatalf("counter delta = %v, want 7", got)
	}
	if got := delta.Value("g.n"); got != 2 {
		t.Fatalf("gauge in delta must stay instantaneous: %v", got)
	}
	dh := delta.Hist("h.n")
	if dh.Count != 2 || dh.Sum != 24 {
		t.Fatalf("hist delta: count=%d sum=%v", dh.Count, dh.Sum)
	}
}

// TestHistogramMergeProperty: splitting any observation stream across
// two histograms and merging the views equals observing the whole
// stream in one histogram — for counts, sums, extremes and every
// bucket.
func TestHistogramMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		whole := newHistogram()
		a, b := newHistogram(), newHistogram()
		n := 1 + rng.Intn(400)
		for i := 0; i < n; i++ {
			// Exercise sub-1 values, mid magnitudes and the top bucket.
			v := math.Exp(rng.Float64()*40 - 5)
			whole.Observe(v)
			if rng.Intn(2) == 0 {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
		}
		got := a.View().Merge(b.View())
		want := whole.View()
		if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("trial %d: merge count/min/max %+v != %+v", trial, got, want)
		}
		if math.Abs(got.Sum-want.Sum) > 1e-9*math.Abs(want.Sum) {
			t.Fatalf("trial %d: merge sum %v != %v", trial, got.Sum, want.Sum)
		}
		if got.Buckets != want.Buckets {
			t.Fatalf("trial %d: merge buckets diverge", trial)
		}
	}
	// Merge with the empty view is the identity.
	h := newHistogram()
	h.Observe(3)
	if got := h.View().Merge(HistView{}); got != h.View() {
		t.Fatal("merge with empty view must be identity")
	}
	if got := (HistView{}).Merge(h.View()); got != h.View() {
		t.Fatal("empty merged with view must equal view")
	}
}

// TestRegistryConcurrencyHammer drives every instrument type from many
// goroutines while snapshots and expositions run continuously; run
// under -race this is the registry's data-race gate.
func TestRegistryConcurrencyHammer(t *testing.T) {
	r := New()
	const workers = 8
	const iters = 2000
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Continuous reader: Snapshot, Sub, and both exporters race the
	// writers for the whole run.
	readers.Add(1)
	go func() {
		defer readers.Done()
		prev := r.Snapshot()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			_ = s.Sub(prev)
			prev = s
			var buf bytes.Buffer
			if err := WritePrometheus(&buf, s); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
			buf.Reset()
			if err := WriteJSONL(&buf, s); err != nil {
				t.Errorf("WriteJSONL: %v", err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			c := r.Counter("ham.counter")
			g := r.Gauge("ham.gauge")
			mx := r.Gauge("ham.max")
			h := r.Histogram("ham.hist")
			cv := r.CounterVec("ham.vec", "w")
			lbl := string(rune('a' + w%4))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				mx.Add(0.5)
				mx.SetMax(float64(i))
				h.Observe(float64(i % 37))
				cv.With(lbl).Inc()
				if i%97 == 0 {
					// Concurrent re-registration must be stable too.
					r.Counter("ham.counter").Inc()
					c.Add(-1) // no-op, keeps totals exact
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	s := r.Snapshot()
	wantC := int64(workers*iters) + int64(workers)*(iters/97+1)
	if got := int64(s.Value("ham.counter")); got != wantC {
		t.Fatalf("hammer counter = %d, want %d", got, wantC)
	}
	if got := int64(s.Value("ham.gauge")); got != int64(workers*iters) {
		t.Fatalf("hammer gauge = %d, want %d", got, workers*iters)
	}
	if got := s.Hist("ham.hist"); got.Count != int64(workers*iters) {
		t.Fatalf("hammer hist count = %d, want %d", got.Count, workers*iters)
	}
	var vecSum int64
	for _, p := range s.Points {
		if p.Name == "ham.vec" {
			if p.LabelKey != "w" {
				t.Fatalf("vec label key = %q", p.LabelKey)
			}
			vecSum += int64(p.Value)
		}
	}
	if vecSum != int64(workers*iters) {
		t.Fatalf("hammer vec sum = %d, want %d", vecSum, workers*iters)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("io.read.requests").Add(12)
	r.Gauge("join.progress.fraction").Set(0.25)
	queued := r.GaugeVec("sched.units.queued", "pool").With("pairs")
	queued.Set(10)
	queued.Add(-3)
	r.CounterVec("sched.units.done", "pool").With(`we"ird\`).Add(3)
	h := r.Histogram("recovery.seconds")
	h.Observe(0.5)
	h.Observe(3)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE io_read_requests counter\nio_read_requests 12\n",
		"# TYPE join_progress_fraction gauge\njoin_progress_fraction 0.25\n",
		`sched_units_done{pool="we\"ird\\"} 3`,
		"# TYPE sched_units_queued gauge\nsched_units_queued{pool=\"pairs\"} 7\n",
		"# TYPE recovery_seconds histogram\n",
		`recovery_seconds_bucket{le="1"} 1`,
		`recovery_seconds_bucket{le="4"} 2`,
		`recovery_seconds_bucket{le="+Inf"} 2`,
		"recovery_seconds_sum 3.5\nrecovery_seconds_count 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
	// Cumulative bucket counts must be non-decreasing.
	last := int64(-1)
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "recovery_seconds_bucket") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("cumulative bucket decreased: %q after %d", line, last)
		}
		last = n
	}
}

func TestJSONLExposition(t *testing.T) {
	r := New()
	r.Counter("a.count").Add(2)
	r.Histogram("b.hist").Observe(5)
	active := r.Gauge("c.active")
	active.Set(10)
	active.Add(-3)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 JSONL lines, got %d: %q", len(lines), buf.String())
	}
	// A gauge holding a count renders as an integer, as it did when
	// gauges were int64.
	if want := `{"name":"c.active","kind":"gauge","value":7}`; lines[2] != want {
		t.Fatalf("gauge line = %q, want %q", lines[2], want)
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if m["name"] == "" || m["kind"] == "" {
			t.Fatalf("line %q lacks name/kind", line)
		}
		if m["name"] == "b.hist" {
			if m["count"].(float64) != 1 || m["sum"].(float64) != 5 {
				t.Fatalf("hist line wrong: %q", line)
			}
		}
	}
}

func TestProgressEstimator(t *testing.T) {
	r := New()
	p := NewProgress(r)
	p.SetTotal(200)
	p.Add(50)
	if got := p.Fraction(); got != 0.25 {
		t.Fatalf("fraction = %v, want 0.25", got)
	}
	// Out-of-order/late adds cannot move the fraction backwards.
	s1 := r.Snapshot().Value(JoinProgressFraction)
	p.Add(0)
	if got := r.Snapshot().Value(JoinProgressFraction); got < s1 {
		t.Fatalf("fraction regressed: %v < %v", got, s1)
	}
	p.Add(150)
	if got := p.Fraction(); got != 1 {
		t.Fatalf("fraction = %v, want 1", got)
	}
	p.Done()
	s := r.Snapshot()
	if s.Value(JoinProgressFraction) != 1 || s.Value(JoinProgressETASeconds) != 0 {
		t.Fatalf("after Done: frac=%v eta=%v", s.Value(JoinProgressFraction), s.Value(JoinProgressETASeconds))
	}
	if s.Value(JoinProgressDone) != s.Value(JoinProgressTotal) {
		t.Fatal("Done must clamp done == total")
	}
	// A fresh join on the same registry resets the gauges.
	p2 := NewProgress(r)
	if p2.Fraction() != 0 {
		t.Fatal("NewProgress must reset the fraction")
	}
	// Zero-total joins (nothing planned) clamp cleanly.
	p2.Done()
	if got := r.Snapshot().Value(JoinProgressFraction); got != 1 {
		t.Fatalf("zero-total Done: frac=%v", got)
	}
}
