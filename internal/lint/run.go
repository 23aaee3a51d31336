package lint

import (
	"fmt"
	"go/ast"
	"io"
	"sort"
	"strings"
)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file     string // module-relative path
	line     int
	analyzer string
}

// Run loads the packages named by patterns, applies the analyzers, and
// returns the surviving diagnostics sorted by file, line and analyzer.
//
// Suppression: a comment of the form
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line, or on the line directly above it, silences that
// analyzer's findings for the line. The reason is mandatory — an
// unexplained suppression is itself reported (as analyzer "sjlint"),
// so every escape hatch in the tree documents why it exists.
func (d *Driver) Run(patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	d.diags = nil
	pkgs, err := d.Load(patterns)
	if err != nil {
		return nil, err
	}

	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	ignores := make(map[string]map[int]map[string]bool) // file -> line -> analyzer
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			d.collectIgnores(f, known, ignores)
		}
	}

	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     d.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				driver:   d,
			})
		}
	}

	var out []Diagnostic
	for _, diag := range d.diags {
		if suppressed(ignores, diag) {
			continue
		}
		out = append(out, diag)
	}
	sortDiags(out)
	return out, nil
}

// sortDiags orders diagnostics by (file, line, col, analyzer, message)
// — the one total order every output path (text, golden tests)
// relies on. Map iteration anywhere upstream (package maps, the
// suppression index) must never leak into output order.
func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

func (d *Driver) report(diag Diagnostic) { d.diags = append(d.diags, diag) }

// collectIgnores parses every //lint:ignore directive of one file into
// the suppression index, reporting malformed directives.
func (d *Driver) collectIgnores(f *ast.File, known map[string]bool, ignores map[string]map[int]map[string]bool) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			pos := d.Fset.Position(c.Pos())
			file := d.relPath(pos.Filename)
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				d.report(Diagnostic{
					File: file, Line: pos.Line, Col: pos.Column,
					Analyzer: "sjlint",
					Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
				})
				continue
			}
			if !known[fields[0]] {
				d.report(Diagnostic{
					File: file, Line: pos.Line, Col: pos.Column,
					Analyzer: "sjlint",
					Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", fields[0]),
				})
				continue
			}
			byLine := ignores[file]
			if byLine == nil {
				byLine = make(map[int]map[string]bool)
				ignores[file] = byLine
			}
			byAnalyzer := byLine[pos.Line]
			if byAnalyzer == nil {
				byAnalyzer = make(map[string]bool)
				byLine[pos.Line] = byAnalyzer
			}
			byAnalyzer[fields[0]] = true
		}
	}
}

func suppressed(ignores map[string]map[int]map[string]bool, diag Diagnostic) bool {
	byLine := ignores[diag.File]
	if byLine == nil {
		return false
	}
	return byLine[diag.Line][diag.Analyzer] || byLine[diag.Line-1][diag.Analyzer]
}

// WriteText renders diagnostics one per line in the canonical
// "file:line: analyzer: message" form.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, diag := range diags {
		if _, err := fmt.Fprintln(w, diag.String()); err != nil {
			return err
		}
	}
	return nil
}
