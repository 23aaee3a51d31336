// Command sjlint runs the project's static-analysis suite: the
// type-accurate analyzers that enforce the join stack's cross-cutting
// contracts (joinerr propagation at the API and the shard process
// boundary, paired trace spans, govern checkpoints, registry-managed
// temp files, exhaustive Kind switches, chain-preserving %w wrapping,
// metric naming). DESIGN.md §10 lists each analyzer with its evidence.
//
// Usage:
//
//	sjlint [-analyzers a,b,...] [patterns...]
//	sjlint -list
//
// Patterns default to ./... and are the go command's, resolved from the
// directory sjlint runs in, as go vet's are: ./... is every package below
// it, ./internal/pbsm one package directory (a bare internal/pbsm is an
// import path, which the standard library would have to hold). Packages
// without non-test Go files are skipped; patterns that leave nothing to
// analyze are a load error. Exit status is 0 when clean, 1 when findings
// are reported, 2 on usage or load errors.
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
