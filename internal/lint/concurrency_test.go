package lint_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spatialjoin/internal/lint"
)

// concurrencyAnalyzers is the CFG/dataflow quartet added with the
// concurrency-contract layer.
const concurrencyAnalyzers = "guardedby,atomicmix,lockorder,goexit"

// runConcurrencySuite loads several fixture packages with one driver
// and runs all four concurrency analyzers over them, returning
// the merged report.
func runConcurrencySuite(t *testing.T) ([]lint.Diagnostic, *lint.Driver) {
	t.Helper()
	d := newDriver(t)
	as, err := lint.ByName(concurrencyAnalyzers)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	var dirs []string
	for _, fixture := range []string{"guardedby", "atomicmix", "lockorder", "goexit"} {
		dirs = append(dirs, filepath.Join(d.ModuleRoot(), "internal", "lint", "testdata", "src", fixture))
	}
	diags, err := d.Run(dirs, as)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return diags, d
}

// TestDiagnosticOrderDeterministic runs the four concurrency analyzers
// twice over the same fixture set — including lockorder, whose findings
// come out of the whole-module Finish phase and a shared graph built
// from map iteration — and requires byte-identical, totally ordered
// reports.
func TestDiagnosticOrderDeterministic(t *testing.T) {
	first, _ := runConcurrencySuite(t)
	second, _ := runConcurrencySuite(t)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two identical runs disagree:\nfirst:  %v\nsecond: %v", first, second)
	}
	if len(first) == 0 {
		t.Fatal("fixture suite produced no findings to order")
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		before := a.File < b.File ||
			(a.File == b.File && a.Line < b.Line) ||
			(a.File == b.File && a.Line == b.Line && a.Col < b.Col) ||
			(a.File == b.File && a.Line == b.Line && a.Col == b.Col && a.Analyzer <= b.Analyzer)
		if !before {
			t.Fatalf("report not sorted by (file, line, col, analyzer): %s before %s", a, b)
		}
	}
}

// TestLockorderCycleReport pins the shape of the ABBA report: both
// edges of the fixture's cycle are reported, each naming the acquired
// class, the held class, and the word "cycle".
func TestLockorderCycleReport(t *testing.T) {
	diags, _ := runFixture(t, "lockorder", "lockorder")
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want the cycle's 2 edges: %v", len(diags), diags)
	}
	for _, diag := range diags {
		if !strings.Contains(diag.Message, "lock order cycle") {
			t.Errorf("finding does not name the cycle: %s", diag)
		}
		if !strings.Contains(diag.Message, ".a.mu") || !strings.Contains(diag.Message, ".b.mu") {
			t.Errorf("finding does not name both lock classes: %s", diag)
		}
	}
}

// TestLockGraphDOT checks the debug export on the clean lockorder
// fixture: its two acquisition paths collapse to the single edge
// a.mu -> b.mu, rendered with a witness site, and no reverse edge.
func TestLockGraphDOT(t *testing.T) {
	_, d := runFixture(t, "lockorder", "lockorder_clean")
	dot := d.LockGraphDOT()
	if !strings.HasPrefix(dot, "digraph lockorder {") || !strings.HasSuffix(strings.TrimSpace(dot), "}") {
		t.Fatalf("not a DOT digraph:\n%s", dot)
	}
	var edges []string
	for _, line := range strings.Split(dot, "\n") {
		if strings.Contains(line, " -> ") {
			edges = append(edges, strings.TrimSpace(line))
		}
	}
	if len(edges) != 1 {
		t.Fatalf("clean fixture graph has %d edges, want 1:\n%s", len(edges), dot)
	}
	e := edges[0]
	if !strings.Contains(e, `.a.mu"`) || !strings.Contains(e, `.b.mu"`) {
		t.Fatalf("edge does not connect a.mu to b.mu: %s", e)
	}
	if strings.Index(e, `.a.mu"`) > strings.Index(e, `.b.mu"`) {
		t.Fatalf("edge points the wrong way: %s", e)
	}
	if !strings.Contains(e, "lockorder.go:") {
		t.Fatalf("edge lacks its witness site label: %s", e)
	}
}

// TestLockorderContractEdgeRealized runs lockorder over the real shard
// and sched packages: the documented joinState.mu -> Collector.mu
// ordering must exist as a live edge in the acquisition graph (sealLocked
// calls Emit/Done under st.mu), and the graph must be clean — no cycle,
// no missing-contract finding. Skipped in -short: it type-checks the
// shard stack.
func TestLockorderContractEdgeRealized(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/shard and internal/sched; run without -short")
	}
	d := newDriver(t)
	as, err := lint.ByName("lockorder")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	dirs := []string{
		filepath.Join(d.ModuleRoot(), "internal", "shard"),
		filepath.Join(d.ModuleRoot(), "internal", "sched"),
	}
	diags, err := d.Run(dirs, as)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, diag := range diags {
		t.Errorf("shard+sched lock graph not clean: %s", diag)
	}
	dot := d.LockGraphDOT()
	want := `"spatialjoin/internal/shard.joinState.mu" -> "spatialjoin/internal/sched.Collector.mu"`
	if !strings.Contains(dot, want) {
		t.Fatalf("documented contract edge %s missing from the graph:\n%s", want, dot)
	}
	if strings.Contains(dot, `"spatialjoin/internal/sched.Collector.mu" -> "spatialjoin/internal/shard.joinState.mu"`) {
		t.Fatalf("reversed contract edge present:\n%s", dot)
	}
}

// TestFieldLevelIgnore pins satellite behavior of the suppression
// machinery: the guardedby fixture's journal.n carries a declaration-
// site //lint:ignore, so no finding may mention the field even though
// its constructor writes it with no lock held. (The golden fixture test
// already enforces this via exact want-marker matching; this spells the
// contract out against regressions in IgnoredAt.)
func TestFieldLevelIgnore(t *testing.T) {
	diags, _ := runFixture(t, "guardedby", "guardedby")
	if len(diags) == 0 {
		t.Fatal("guardedby fixture produced no findings at all")
	}
	for _, diag := range diags {
		if strings.Contains(diag.Message, "journal") {
			t.Errorf("field-level ignore did not suppress: %s", diag)
		}
	}
}
