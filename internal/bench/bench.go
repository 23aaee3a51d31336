// Package bench is the experiment harness reproducing every table and
// figure of the paper's evaluation. Each experiment has a runner that
// returns both a typed result (asserted on by tests and benchmarks) and a
// printable Table with the same rows/series the paper reports.
//
// Because the original TIGER extracts and the 1996 SPARCstation are not
// available, dataset sizes and memory budgets are parameterized: a Suite
// can run at the published scale (Scale*=1) or scaled down, with memory
// budgets expressed as fractions of the input size so that the *shape* of
// every figure — who wins, by what factor, where the crossovers fall — is
// preserved. EXPERIMENTS.md records paper-vs-measured for every run.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
)

// PaperKPESize is the key-pointer element size of the original C++
// implementation; converting our 40-byte KPEs to "paper megabytes" uses
// this ratio so budgets like "2.5 MB" keep their meaning relative to the
// dataset size.
const PaperKPESize = 20

// Suite generates and caches the experiment datasets.
type Suite struct {
	// LAScale and CALScale scale the LA_RR/LA_ST and CAL_ST cardinalities
	// (1 = published size). Zero values select 1 and 0.15.
	LAScale, CALScale float64
	// Seed makes every dataset deterministic.
	Seed int64
	// Transfer is the simulated page-transfer time used by all
	// experiments. Zero selects DefaultTransfer, which rescales the
	// paper's 1996 disk to today's CPU speed so that the CPU-vs-I/O
	// balance of the published figures is preserved: the original
	// SPARCstation ran roughly two orders of magnitude slower than a
	// current core, so a disk two orders of magnitude faster than the
	// 1996 Seagate (0.5 ms/page → 5 µs/page) keeps the ratio.
	Transfer time.Duration

	larr, last, calst []geom.KPE
	scaled            map[int][2][]geom.KPE
}

// DefaultTransfer is the per-page transfer time of the experiment disk
// (see Suite.Transfer).
const DefaultTransfer = 5 * time.Microsecond

func (s *Suite) transfer() time.Duration {
	if s.Transfer <= 0 {
		return DefaultTransfer
	}
	return s.Transfer
}

// NewSuite returns a Suite with the given scales; zero values select the
// defaults (full LA datasets, 15% CAL_ST).
func NewSuite(laScale, calScale float64, seed int64) *Suite {
	return &Suite{LAScale: laScale, CALScale: calScale, Seed: seed}
}

func (s *Suite) laScale() float64 {
	if s.LAScale <= 0 {
		return 1
	}
	return s.LAScale
}

func (s *Suite) calScale() float64 {
	if s.CALScale <= 0 {
		return 0.15
	}
	return s.CALScale
}

// LARR returns the LA_RR-like dataset.
func (s *Suite) LARR() []geom.KPE {
	if s.larr == nil {
		n := int(float64(datagen.LARRCount) * s.laScale())
		s.larr = datagen.LARR(s.Seed+1, n).KPEs
	}
	return s.larr
}

// LAST returns the LA_ST-like dataset.
func (s *Suite) LAST() []geom.KPE {
	if s.last == nil {
		n := int(float64(datagen.LASTCount) * s.laScale())
		s.last = datagen.LAST(s.Seed+2, n).KPEs
	}
	return s.last
}

// CALST returns the CAL_ST-like dataset.
func (s *Suite) CALST() []geom.KPE {
	if s.calst == nil {
		n := int(float64(datagen.CALSTCount) * s.calScale())
		s.calst = datagen.CALST(s.Seed+3, n).KPEs
	}
	return s.calst
}

// ScaledLA returns (LA_RR(p), LA_ST(p)) — both edges grown by factor p.
func (s *Suite) ScaledLA(p int) ([]geom.KPE, []geom.KPE) {
	if s.scaled == nil {
		s.scaled = make(map[int][2][]geom.KPE)
	}
	if v, ok := s.scaled[p]; ok {
		return v[0], v[1]
	}
	rr := datagen.Scale(s.LARR(), float64(p))
	st := datagen.Scale(s.LAST(), float64(p))
	s.scaled[p] = [2][]geom.KPE{rr, st}
	return rr, st
}

// JoinID names the experiment joins of Table 2.
type JoinID string

// The joins of the paper's Table 2. J5 is the CAL_ST self-join.
const (
	J1 JoinID = "J1"
	J2 JoinID = "J2"
	J3 JoinID = "J3"
	J4 JoinID = "J4"
	J5 JoinID = "J5"
)

// Inputs returns the relation pair of a join.
func (s *Suite) Inputs(j JoinID) (R, S []geom.KPE) {
	switch j {
	case J1:
		return s.LARR(), s.LAST()
	case J2:
		return s.ScaledLA(2)
	case J3:
		return s.ScaledLA(3)
	case J4:
		return s.ScaledLA(4)
	case J5:
		c := s.CALST()
		return c, c
	}
	panic(fmt.Sprintf("bench: unknown join %q", j))
}

// MemFrac converts a memory budget expressed as a fraction of the input
// size into bytes for the given relation pair, with a floor of 4 KiB.
func MemFrac(R, S []geom.KPE, frac float64) int64 {
	m := int64(frac * float64(int64(len(R)+len(S))*geom.KPESize))
	if m < 4<<10 {
		m = 4 << 10
	}
	return m
}

// PaperMB expresses a byte budget in "paper megabytes": the size the same
// number of KPEs would occupy at the original 20-byte KPE size. The
// published figures' x-axes (2.5 MB, 25 MB, …) are in these units.
func PaperMB(bytes int64) float64 {
	return float64(bytes) * PaperKPESize / geom.KPESize / (1 << 20)
}

// LAMemFrac is the memory fraction equivalent to the paper's 2.5 MB
// budget for the LA joins: 2.5 MB against 260k 20-byte KPEs ≈ 0.48 of the
// input size.
const LAMemFrac = 0.48

// MemSweep is the default sweep of memory fractions for the J5 figures,
// spanning the paper's 2.5–100 MB range against the 75 MB input
// (≈ 0.03–1.3 of input size).
var MemSweep = []float64{0.033, 0.066, 0.13, 0.25, 0.50, 0.75, 1.0, 1.3}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// Fcsv writes the table as comma-separated values (header row first) for
// plotting tools. Thousands separators in numeric cells are stripped so
// the values parse as numbers.
func (t *Table) Fcsv(w io.Writer) {
	row := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if isFormattedNumber(c) {
				c = strings.ReplaceAll(c, ",", "")
			}
			if strings.ContainsAny(c, ",\"") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			parts[i] = c
		}
		fmt.Fprintln(w, strings.Join(parts, ","))
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
}

// isFormattedNumber reports whether s looks like a fint-formatted integer
// ("1,234,567") whose separators should be stripped for CSV.
func isFormattedNumber(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if (r < '0' || r > '9') && r != ',' && r != '-' {
			return false
		}
	}
	return strings.Contains(s, ",")
}

// fsec formats a duration as seconds with millisecond resolution.
func fsec(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// fint formats an integer with thousands separators for readability.
func fint(v int64) string {
	s := fmt.Sprintf("%d", v)
	if v < 0 {
		return s
	}
	var b strings.Builder
	pre := len(s) % 3
	if pre > 0 {
		b.WriteString(s[:pre])
		if len(s) > pre {
			b.WriteByte(',')
		}
	}
	for i := pre; i < len(s); i += 3 {
		b.WriteString(s[i : i+3])
		if i+3 < len(s) {
			b.WriteByte(',')
		}
	}
	return b.String()
}
