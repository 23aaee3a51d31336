// Command sjbench regenerates the tables and figures of the paper's
// evaluation (Dittrich & Seeger, ICDE 2000) and the ablations built on
// them. Each experiment prints the same rows or series the paper reports;
// EXPERIMENTS.md compares them to the published numbers. Everything here
// is stated in the paper's cost model (measured CPU plus charged I/O
// units); wall-clock and scaling numbers come from the repository
// benchmark, `go run ./benchmark`.
//
// Usage:
//
//	sjbench [-format table|csv] [-exp all|<name>[,<name>...]]
//	        [-la-scale 1.0] [-cal-scale 0.15] [-seed 1] [-maxp 10]
//
// The experiments are table1..table3, fig3..fig6, fig11..fig14, the
// ablations abl-tiles, abl-tune, abl-curve, abl-depth and abl-levels,
// methods, methods-j5, robustness and plancheck; -exp with an unknown
// name lists them. The phase tree of a single join is `sjoin -stats`,
// its Chrome trace `sjoin -trace out.json`.
//
// The -la-scale and -cal-scale flags scale the synthetic dataset
// cardinalities relative to Table 1 of the paper (the CAL_ST self-join J5
// at full 1.9M-rectangle scale takes many minutes for the slowest
// baseline configurations, so J5 experiments default to 15%).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"spatialjoin/internal/bench"
)

func main() {
	// order is the sequence 'all' runs in; it is also the list the help
	// text and the unknown-experiment error print.
	order := []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6",
		"fig11", "fig12", "table3", "fig13", "fig14",
		"abl-tiles", "abl-tune", "abl-curve", "abl-depth", "abl-levels",
		"methods", "methods-j5", "robustness", "plancheck"}
	exp := flag.String("exp", "all", "experiments to run, comma-separated, or all: "+strings.Join(order, ", "))
	laScale := flag.Float64("la-scale", 1.0, "scale of the LA_RR/LA_ST cardinalities")
	calScale := flag.Float64("cal-scale", 0.15, "scale of the CAL_ST cardinality (join J5)")
	seed := flag.Int64("seed", 1, "dataset generator seed")
	maxP := flag.Int("maxp", 10, "largest p for figure 13")
	format := flag.String("format", "table", "output format: table or csv")
	flag.Parse()

	s := bench.NewSuite(*laScale, *calScale, *seed)
	runners := map[string]func() *bench.Table{
		"table1":     func() *bench.Table { _, t := bench.RunTable1(s); return t },
		"table2":     func() *bench.Table { _, t := bench.RunTable2(s); return t },
		"table3":     func() *bench.Table { _, t := bench.RunTable3(s); return t },
		"fig3":       func() *bench.Table { _, t := bench.RunFig3(s); return t },
		"fig4":       func() *bench.Table { _, t := bench.RunFig4(s, nil); return t },
		"fig5":       func() *bench.Table { _, t := bench.RunFig5(s, nil); return t },
		"fig6":       func() *bench.Table { _, t := bench.RunFig6(s, nil); return t },
		"fig11":      func() *bench.Table { _, t := bench.RunFig11(s, nil); return t },
		"fig12":      func() *bench.Table { _, t := bench.RunFig12(s, nil, true); return t },
		"fig13":      func() *bench.Table { _, t := bench.RunFig13(s, *maxP); return t },
		"fig14":      func() *bench.Table { _, t := bench.RunFig14(s, nil); return t },
		"abl-tiles":  func() *bench.Table { _, t := bench.RunAblationTiles(s); return t },
		"abl-tune":   func() *bench.Table { _, t := bench.RunAblationTune(s); return t },
		"abl-curve":  func() *bench.Table { _, t := bench.RunAblationCurve(s); return t },
		"abl-depth":  func() *bench.Table { _, t := bench.RunAblationTrieDepth(s); return t },
		"abl-levels": func() *bench.Table { _, t := bench.RunAblationLevels(s); return t },
		"methods":    func() *bench.Table { _, t := bench.RunMethods(s, bench.J1); return t },
		"methods-j5": func() *bench.Table { _, t := bench.RunMethods(s, bench.J5); return t },
		"robustness": func() *bench.Table { _, t := bench.RunRobustness(s, 0); return t },
		"plancheck":  func() *bench.Table { _, t := bench.RunPlanCheck(s); return t },
	}
	var names []string
	if *exp == "all" {
		names = order
	} else {
		for _, n := range strings.Split(*exp, ",") {
			if _, ok := runners[n]; !ok {
				fmt.Fprintf(os.Stderr, "sjbench: unknown experiment %q (have: %s)\n",
					n, strings.Join(order, ", "))
				os.Exit(2)
			}
			names = append(names, n)
		}
	}

	fmt.Printf("spatial-join experiment harness (LA scale %.2f, CAL scale %.2f, seed %d)\n\n",
		*laScale, *calScale, *seed)
	for _, n := range names {
		t0 := time.Now()
		tab := runners[n]()
		if *format == "csv" {
			fmt.Printf("# %s\n", tab.Title)
			tab.Fcsv(os.Stdout)
			fmt.Println()
			continue
		}
		tab.Note += fmt.Sprintf(" | harness wall time %.1fs", time.Since(t0).Seconds())
		tab.Fprint(os.Stdout)
	}
}
