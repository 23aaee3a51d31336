package bench

import (
	"bytes"
	"strings"
	"testing"
)

// testSuite runs the experiments at a strongly reduced scale so the shape
// assertions stay fast. The shapes themselves are scale-free.
func testSuite() *Suite { return NewSuite(0.05, 0.01, 1) }

func TestTable1Shapes(t *testing.T) {
	s := testSuite()
	rows, tab := RunTable1(s)
	if len(rows) != 9 {
		t.Fatalf("expected 9 dataset rows, got %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["LA_RR"].Coverage < 2*byName["LA_ST"].Coverage {
		t.Fatalf("LA_RR coverage (%.3f) must far exceed LA_ST (%.3f)",
			byName["LA_RR"].Coverage, byName["LA_ST"].Coverage)
	}
	// Coverage grows roughly quadratically in p (boundary clamping damps it).
	if byName["LA_ST(2)"].Coverage < 2.5*byName["LA_ST"].Coverage {
		t.Fatalf("LA_ST(2) coverage %.3f not ≈4x LA_ST %.3f",
			byName["LA_ST(2)"].Coverage, byName["LA_ST"].Coverage)
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	if !strings.Contains(buf.String(), "LA_RR(3)") {
		t.Fatal("printed table incomplete")
	}
}

func TestTable2Shapes(t *testing.T) {
	s := testSuite()
	rows, _ := RunTable2(s)
	if len(rows) != 5 {
		t.Fatalf("expected 5 join rows, got %d", len(rows))
	}
	// Result counts grow monotonically J1 -> J4 (Table 2 of the paper).
	for i := 1; i < 4; i++ {
		if rows[i].Results <= rows[i-1].Results {
			t.Fatalf("results must grow with p: %v", rows)
		}
	}
	for _, r := range rows {
		if r.Results <= 0 || r.Selectivity <= 0 {
			t.Fatalf("join %s produced no results", r.Join)
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	s := testSuite()
	rows, _ := RunTable3(s)
	get := func(m, p string) Table3Row {
		for _, r := range rows {
			if r.Method == m && r.Phase == p {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", m, p)
		return Table3Row{}
	}
	// Partition phase: ~1 write pass, no reads (inputs are free).
	if w := get("PBSM", "partition").WritePasses; w < 0.9 || w > 1.5 {
		t.Fatalf("PBSM partition write passes = %.2f, want ≈1", w)
	}
	if r := get("PBSM", "partition").ReadPasses; r != 0 {
		t.Fatalf("PBSM partition read passes = %.2f, want 0", r)
	}
	// Join phase: ~1 read pass each.
	if r := get("PBSM", "join").ReadPasses; r < 0.9 {
		t.Fatalf("PBSM join read passes = %.2f, want ≥1", r)
	}
	// S3J: one write pass to partition, one read pass to join; the sort
	// phase is whole merge passes, forced or absent, so it reads what it
	// writes; and the total stays within the paper's minimum of four.
	part, srt, join := get("S3J", "partition"), get("S3J", "sort"), get("S3J", "join")
	if part.WritePasses < 0.9 || part.WritePasses > 1.1 || part.ReadPasses != 0 {
		t.Fatalf("S3J partition passes = %.2f read / %.2f write, want 0 / ≈1", part.ReadPasses, part.WritePasses)
	}
	if join.ReadPasses < 0.9 || join.ReadPasses > 1.1 || join.WritePasses != 0 {
		t.Fatalf("S3J join passes = %.2f read / %.2f write, want ≈1 / 0", join.ReadPasses, join.WritePasses)
	}
	if d := srt.ReadPasses - srt.WritePasses; d < 0 || d > 0.05 {
		t.Fatalf("S3J sort passes = %.2f read / %.2f write, want whole merge passes", srt.ReadPasses, srt.WritePasses)
	}
	if total := part.WritePasses + srt.ReadPasses + srt.WritePasses + join.ReadPasses; total > 4 {
		t.Fatalf("S3J touches the data %.2f times, more than the paper's four", total)
	}
}

func TestFig3Shapes(t *testing.T) {
	s := testSuite()
	rows, _ := RunFig3(s)
	if len(rows) != 4 {
		t.Fatalf("expected 4 joins, got %d", len(rows))
	}
	for i, r := range rows {
		if r.IODupUnits <= 0 {
			t.Fatalf("%s: sort-based dup removal must cost I/O", r.Join)
		}
		// The dup-removal overhead grows with the result size (Figure 3a).
		if i > 0 && r.IODupUnits <= rows[i-1].IODupUnits {
			t.Fatalf("dup I/O must grow with result size: %v then %v",
				rows[i-1].IODupUnits, r.IODupUnits)
		}
	}
}

func TestFig4Shapes(t *testing.T) {
	s := testSuite()
	rows, _ := RunFig4(s, nil)
	for _, r := range rows {
		// Candidate tests are the machine-independent measure: the trie
		// must do far fewer than the list on whole-dataset joins. (The
		// paper additionally observes the runtime gain growing with
		// selectivity; that trend depends on absolute dataset scale and
		// is recorded in EXPERIMENTS.md rather than asserted here.)
		if r.TrieTests*2 >= r.ListTests {
			t.Fatalf("%s: trie tests (%d) not well below list (%d)", r.Join, r.TrieTests, r.ListTests)
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	s := testSuite()
	// Three budgets that partition (P >= 2), where Figure 5's curves live,
	// and one where everything fits (P = 1).
	fracs := []float64{0.05, 0.25, 0.8, 1.3}
	rows, _ := RunFig5(s, fracs)
	// More memory -> fewer partitions.
	if !(rows[0].P > rows[1].P && rows[1].P > rows[2].P && rows[2].P >= 2) {
		t.Fatalf("P must fall with memory and stay >= 2: %d, %d, %d", rows[0].P, rows[1].P, rows[2].P)
	}
	// The paper's curve, on the kernel (one sweep per whole partition
	// pair): the list sweep's candidate tests grow as partitions get
	// bigger; the trie's stay comparatively flat (the Figure 5 crossover
	// mechanism).
	if rows[2].ListTests <= rows[0].ListTests {
		t.Fatalf("list tests must grow with memory: %d -> %d", rows[0].ListTests, rows[2].ListTests)
	}
	listGrowth := float64(rows[2].ListTests) / float64(rows[0].ListTests)
	trieGrowth := float64(rows[2].TrieTests) / float64(rows[0].TrieTests)
	if trieGrowth >= listGrowth {
		t.Fatalf("trie test growth (%.1fx) must stay below list growth (%.1fx)", trieGrowth, listGrowth)
	}
	// The shipped join stripes every loaded pair (pbsm/stripes.go), so its
	// list tests no longer follow the partition size.
	if shipped := float64(rows[2].ShippedListTests) / float64(rows[0].ShippedListTests); shipped > 1.5 {
		t.Fatalf("shipped list tests grow %.2fx from P = %d to P = %d (%d -> %d), want at most 1.5x",
			shipped, rows[0].P, rows[2].P, rows[0].ShippedListTests, rows[2].ShippedListTests)
	}
	// The same at P = 1: the join is striped in memory and its status
	// lists are shorter than those of two whole half-size partitions.
	if rows[3].P != 1 {
		t.Fatalf("memory at 1.3x the input must give P = 1, got %d", rows[3].P)
	}
	if rows[3].ShippedListTests >= rows[2].ListTests {
		t.Fatalf("shipped list tests at P = 1 (%d) must fall below the kernel's at P = %d (%d)",
			rows[3].ShippedListTests, rows[2].P, rows[2].ListTests)
	}
}

func TestFig6Shapes(t *testing.T) {
	s := testSuite()
	rows, _ := RunFig6(s, []float64{0.033, 1.0})
	small, large := rows[0], rows[1]
	if small.RepartFrac < 0 || small.RepartFrac > 0.8 {
		t.Fatalf("repartition share out of range: %.2f", small.RepartFrac)
	}
	if large.RepartFrac > small.RepartFrac && large.Repartitions > small.Repartitions {
		t.Fatalf("repartitioning must diminish with memory: %.2f -> %.2f",
			small.RepartFrac, large.RepartFrac)
	}
	// The balanced plan beside the paper's never repartitions more.
	for _, r := range rows {
		if r.BalancedRepartitions > r.Repartitions {
			t.Fatalf("mem %.3f: balanced plan repartitions %d times, hash plan %d", r.MemFrac, r.BalancedRepartitions, r.Repartitions)
		}
	}
}

func TestFig11Shapes(t *testing.T) {
	s := testSuite()
	rows, _ := RunFig11(s, []float64{0.1, 0.5})
	for _, r := range rows {
		// Replication must slash the candidate tests (the CPU proxy) —
		// the paper reports an order of magnitude.
		if r.ReplTests*2 > r.OrigTests {
			t.Fatalf("replication must cut tests sharply: orig=%d repl=%d",
				r.OrigTests, r.ReplTests)
		}
	}
}

func TestFig12Shapes(t *testing.T) {
	s := testSuite()
	rows, _ := RunFig12(s, []float64{0.25}, true)
	r := rows[0]
	if r.NestedTotal <= 0 || r.ListTotal <= 0 || r.TrieTotal <= 0 {
		t.Fatal("all three series must run")
	}
	// Nested loops and list sweep are within a small factor of each other
	// for S³J's tiny partitions (Figure 12).
	ratio := r.ListTotal.Seconds() / r.NestedTotal.Seconds()
	if ratio > 3 || ratio < 0.33 {
		t.Fatalf("nested vs list should be comparable for S3J, ratio %.2f", ratio)
	}
}

func TestFig13Shapes(t *testing.T) {
	s := testSuite()
	rows, _ := RunFig13(s, 4)
	if len(rows) != 4 {
		t.Fatalf("expected 4 p-values, got %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Results <= rows[i-1].Results {
			t.Fatalf("results must grow with p")
		}
	}
}

func TestFig14Shapes(t *testing.T) {
	s := testSuite()
	rows, _ := RunFig14(s, []float64{0.1, 1.0})
	for _, r := range rows {
		if r.S3JTotal <= 0 || r.ListTotal <= 0 || r.TrieTotal <= 0 {
			t.Fatal("all three series must run")
		}
	}
}

func TestSuiteDeterminismAndCaching(t *testing.T) {
	s := testSuite()
	a := s.LARR()
	b := s.LARR()
	if &a[0] != &b[0] {
		t.Fatal("datasets must be cached")
	}
	r1, s1 := s.ScaledLA(2)
	r2, s2 := s.ScaledLA(2)
	if &r1[0] != &r2[0] || &s1[0] != &s2[0] {
		t.Fatal("scaled datasets must be cached")
	}
}

func TestMemFracFloor(t *testing.T) {
	if m := MemFrac(nil, nil, 0.5); m != 4<<10 {
		t.Fatalf("empty inputs must floor the budget, got %d", m)
	}
}

func TestPaperMB(t *testing.T) {
	// 1 MiB of 41-byte KPEs holds the KPE count 20/41 MiB of 20-byte
	// paper KPEs would.
	if got := PaperMB(1 << 20); got != 20.0/41.0 {
		t.Fatalf("PaperMB(1MiB) = %g, want %g", got, 20.0/41.0)
	}
}

func TestFintFormatting(t *testing.T) {
	cases := map[int64]string{
		0:       "0",
		12:      "12",
		1234:    "1,234",
		1234567: "1,234,567",
		-5:      "-5",
		1000:    "1,000",
	}
	for v, want := range cases {
		if got := fint(v); got != want {
			t.Errorf("fint(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestFcsvStripsThousandsAndQuotes(t *testing.T) {
	tab := &Table{
		Header: []string{"name", "count"},
	}
	tab.AddRow("with, comma", "1,234,567")
	tab.AddRow("plain", "42")
	var buf bytes.Buffer
	tab.Fcsv(&buf)
	got := buf.String()
	want := "name,count\n\"with, comma\",1234567\nplain,42\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}
