// Package lint is a stdlib-only static-analysis framework for the join
// stack: a small driver (package loading, type checking, diagnostics,
// //lint:ignore suppression) plus the project-specific
// analyzers that turn the codebase's cross-cutting contracts — joinerr
// propagation at the API and the shard process boundary, trace spans and
// phase activations ended by defer, govern checkpoints, registry-managed
// temp files, exhaustive Kind switches, %w wrapping, metric naming — into
// machine-checked invariants. Concurrency contracts are not checked here: the race
// detector and the race hammers own them (DESIGN.md §10).
//
// The framework deliberately uses only go/parser, go/ast, go/types and
// go/importer: no golang.org/x/tools dependency, so the linter builds
// with the same zero-dependency go.mod as the library it polices. One
// `go list -export -deps` call resolves the patterns and compiles every
// import; the driver parses and type-checks only the packages the
// patterns name and imports the rest from the compiler's export data.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed by file and line the way a
// compiler error is, so editors and CI logs can jump to it.
type Diagnostic struct {
	// File is the path of the offending file, relative to the module
	// root.
	File string
	// Line and Col locate the finding (1-based; Col may be 0 when the
	// position carries no column).
	Line int
	Col  int
	// Analyzer names the check that produced the finding.
	Analyzer string
	// Message explains the violation and, where possible, the fix.
	Message string
}

// String renders the canonical "file:line: analyzer: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.File, d.Line, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check. Run is invoked once per loaded
// package and reports findings through the Pass.
type Analyzer struct {
	// Name is the identifier used in output lines and //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer
	// enforces.
	Doc string
	// Run inspects one type-checked package.
	Run func(*Pass)
}

// Pass carries everything an analyzer needs to inspect one package: the
// parsed files, the type information, and a reporting sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test files, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the resolved identifier uses, expression types and
	// selections for Files.
	Info *types.Info

	driver *Driver
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.driver.report(Diagnostic{
		File:     p.driver.relPath(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// joinPackages are the package names whose API boundary carries the
// joinerr / govern / registry contracts. Scoping by name (not import
// path) lets the testdata fixture packages opt into the same rules by
// declaring themselves a join package.
var joinPackages = map[string]bool{
	"pbsm":    true,
	"s3j":     true,
	"sssj":    true,
	"shj":     true,
	"stripe":  true,
	"extsort": true,
	"core":    true,
}

// tempFilePackages are the join packages whose temp files must flow
// through diskio.Registry; core composes the others and diskio itself
// implements the registry, so both stay out.
var tempFilePackages = map[string]bool{
	"pbsm":    true,
	"s3j":     true,
	"sssj":    true,
	"shj":     true,
	"extsort": true,
}

// isJoinPackage reports whether the package under analysis is one of
// the join packages by name.
func isJoinPackage(pkg *types.Package) bool { return joinPackages[pkg.Name()] }

// Analyzers returns the full registry, sorted by name.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		AnalyzerCheckpoint,
		AnalyzerJoinwrap,
		AnalyzerKindswitch,
		AnalyzerMetricname,
		AnalyzerRegistry,
		AnalyzerShardwrap,
		AnalyzerSpanend,
		AnalyzerWrapverb,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// ByName resolves a comma-separated analyzer list against the registry.
func ByName(names string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: no analyzers selected")
	}
	return out, nil
}
