package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
)

// The sharded workload starts os.Executable() -shard-worker, which under
// go test is this test binary.
func TestMain(m *testing.M) {
	if shardWorker() {
		return
	}
	os.Exit(m.Run())
}

// smoke runs every workload at a fiftieth of its size with the least
// number of timed joins.
var smoke = options{seed: 7, scale: 0.02}

// declared mirrors BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	d := readDeclared(t)
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", d.Paths)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", d.RunSeconds)
	}
	if n := len(d.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d, the limit is 2..8", n, len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), the program has %q (%q)",
				i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %q: bad name, or a why of %d characters", w.name, len(w.why))
		}
	}

	check := func(kind string, got []declaredMetric, want []metric, limit int, bounded bool) {
		if len(got) != len(want) || len(got) < 1 || len(got) > limit {
			t.Fatalf("%s: %d declared, the program has %d, the limit is %d", kind, len(got), len(want), limit)
		}
		seen := map[string]bool{}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: declared %+v, the program has %+v", kind, i, g, m)
			}
			if !nameRE.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s: name %q is malformed or used twice", kind, m.name)
			}
			seen[m.name] = true
			if m.unit == "" || (m.better != "lower" && m.better != "higher") {
				t.Errorf("%s %s: unit %q, better %q", kind, m.name, m.unit, m.better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, m.name)
			case bounded && (g.Bound == nil || *g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s %s: bound %v declared, the program has %v, the limit is 0.25", kind, m.name, g.Bound, m.bound)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, 16, true)
	check("per_layer", d.PerLayer, perLayer, 128, false)
}

func names(decl []metric) []string {
	var out []string
	for _, m := range decl {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

func keys(m values) []string {
	var out []string
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out = append(out, k+" (not finite)")
			continue
		}
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		rep, err := runEndToEnd(w, smoke)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.failed != 0 || rep.attempted < 2*setupReps {
			t.Errorf("%s: %d of %d joins failed: %s", w.name, rep.failed, rep.attempted, rep.firstFailure)
		}
		if got, want := keys(rep.m), names(endToEnd); !sameNames(got, want) {
			t.Errorf("%s end to end: emitted %v, declared %v", w.name, got, want)
		}
		for name, v := range rep.m {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v)
			}
		}

		tr, err := runTraced(w, smoke)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if got, want := keys(tr.m), names(perLayer); !sameNames(got, want) {
			t.Errorf("%s per layer: emitted %v, declared %v", w.name, got, want)
		}
		if len(tr.log.spans) == 0 || tr.log.spans[0].End <= tr.log.spans[0].Start {
			t.Errorf("%s traced: the benchmark recorded no span of its own", w.name)
		}
	}
}

func TestOracleMismatchCountsAsFailed(t *testing.T) {
	w, err := findWorkload("pbsm_mem")
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func(*oracle){
		"count": func(o *oracle) { o.count++ },
		"hash":  func(o *oracle) { o.hash ^= 1 },
		"sampled row": func(o *oracle) {
			for p := range o.rows {
				delete(o.rows, p)
				return
			}
		},
	}
	for name, corrupt := range damage {
		opt := smoke
		opt.corrupt = corrupt
		rep, err := runEndToEnd(w, opt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.failed != rep.attempted || rep.failed == 0 {
			t.Errorf("damaged %s: %d of %d joins failed, want all", name, rep.failed, rep.attempted)
		}
	}
}

func TestCheckerRejectsADuplicateAndAMissingPair(t *testing.T) {
	in := workloads[0].generate(3, 0.0008)
	o := newOracle(3, in.R, in.S)
	var sampled []geom.Pair
	for p := range o.rows {
		sampled = append(sampled, p)
	}
	if len(sampled) < 2 {
		t.Fatalf("only %d sampled pairs", len(sampled))
	}
	// Replaying the brute-force rows can only match the sweep's count and
	// hash if every result has a sampled R record, which sampleSize
	// covering all of R guarantees here.
	if len(in.R) > sampleSize {
		t.Fatalf("%d R records, want at most %d", len(in.R), sampleSize)
	}
	replay := func(ps []geom.Pair) string {
		c := o.newChecker(func() {})
		for _, p := range ps {
			c.emit(p)
		}
		return c.verdict()
	}
	if v := replay(sampled); v != "" {
		t.Errorf("exact replay: %s", v)
	}
	if v := replay(append([]geom.Pair{sampled[0]}, sampled...)); v == "" {
		t.Error("a pair reported twice passed")
	}
	if v := replay(sampled[1:]); v == "" {
		t.Error("a missing pair passed")
	}
	// Same count, but one pair swapped for another that is not a result.
	swapped := append([]geom.Pair{{R: sampled[0].R, S: math.MaxUint64}}, sampled[1:]...)
	if v := replay(swapped); v == "" {
		t.Error("a wrong pair passed")
	}
}

func TestOracleSweepAgreesWithNestedLoops(t *testing.T) {
	for _, grow := range []float64{1, 4, 40} {
		R := datagen.Scale(datagen.LARR(5, 1500).KPEs, grow)
		S := datagen.Scale(datagen.LAST(6, 1500).KPEs, grow)
		var count int64
		var hash uint64
		for _, r := range R {
			for _, s := range S {
				if r.Rect.Intersects(s.Rect) {
					count++
					hash += pairHash(geom.Pair{R: r.ID, S: s.ID})
				}
			}
		}
		o := newOracle(1, R, S)
		if o.count != count || o.hash != hash || count == 0 {
			t.Errorf("grow %g: sweep found %d pairs (hash %#x), nested loops %d (hash %#x)", grow, o.count, o.hash, count, hash)
		}
	}
}

func TestChangedInputsFailThePinAtSeedOne(t *testing.T) {
	w, err := findWorkload("pbsm_dupsort")
	if err != nil {
		t.Fatal(err)
	}
	in := w.generate(1, 1)
	if err := w.checkPinned(1, 1, in); err != nil {
		t.Errorf("the pinned inputs changed: %v", err)
	}
	in.hash++
	if err := w.checkPinned(1, 1, in); err == nil {
		t.Error("a changed input hash passed at seed 1, scale 1")
	}
	if err := w.checkPinned(2, 1, in); err != nil {
		t.Errorf("seed 2 must run unpinned: %v", err)
	}
}
