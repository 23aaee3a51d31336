// Command sjlint runs the project's static-analysis suite: the
// type-accurate analyzers that enforce the join stack's cross-cutting
// contracts (joinerr propagation, paired trace spans, govern
// checkpoints, registry-managed temp files, exhaustive Kind switches,
// chain-preserving %w wrapping) and its concurrency contracts
// (guarded-by field annotations, atomic/plain access mixing, the
// module-wide lock acquisition order, goroutine join/cancel paths).
//
// Usage:
//
//	sjlint [-analyzers a,b,...] [patterns...]
//	sjlint -list
//	sjlint -lockgraph [patterns...]
//
// Patterns default to ./... and follow go-tool conventions: ./... walks
// the module, dir/... walks a subtree, anything else names one package
// directory. Exit status is 0 when clean, 1 when findings are reported,
// 2 on usage or load errors.
//
// Suppress a finding with a
//
//	//lint:ignore <analyzer> <reason>
//
// comment on the flagged line or the line directly above it.
package main

import (
	"flag"
	"fmt"
	"os"

	"spatialjoin/internal/lint"
)

func main() {
	var (
		analyzers = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		list      = flag.Bool("list", false, "list the registered analyzers and exit")
		lockgraph = flag.Bool("lockgraph", false, "dump the lock acquisition graph as Graphviz DOT instead of findings")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := lint.Analyzers()
	if *analyzers != "" {
		var err error
		selected, err = lint.ByName(*analyzers)
		if err != nil {
			fatal(err)
		}
	}
	if *lockgraph {
		// The graph is a lockorder byproduct; run just that analyzer.
		var err error
		selected, err = lint.ByName("lockorder")
		if err != nil {
			fatal(err)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	driver, err := lint.NewDriver(wd)
	if err != nil {
		fatal(err)
	}
	diags, err := driver.Run(patterns, selected)
	if err != nil {
		fatal(err)
	}

	if *lockgraph {
		fmt.Print(driver.LockGraphDOT())
		if len(diags) > 0 {
			os.Exit(1)
		}
		return
	}
	if err := lint.WriteText(os.Stdout, diags); err != nil {
		fatal(err)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sjlint:", err)
	os.Exit(2)
}
