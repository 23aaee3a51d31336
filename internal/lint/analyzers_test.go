package lint_test

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"spatialjoin/internal/lint"
)

// newDriver returns a driver whose patterns resolve from this package's
// directory.
func newDriver(t *testing.T) *lint.Driver {
	t.Helper()
	d, err := lint.NewDriver(".")
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	return d
}

// fixtureDir is the directory of one testdata fixture package.
func fixtureDir(d *lint.Driver, fixture string) string {
	return filepath.Join(d.ModuleRoot(), "internal", "lint", "testdata", "src", fixture)
}

// runFixture loads one testdata fixture package and runs a single
// analyzer over it.
func runFixture(t *testing.T, analyzer, fixture string) ([]lint.Diagnostic, *lint.Driver) {
	t.Helper()
	d := newDriver(t)
	as, err := lint.ByName(analyzer)
	if err != nil {
		t.Fatalf("ByName(%q): %v", analyzer, err)
	}
	diags, err := d.Run([]string{fixtureDir(d, fixture)}, as)
	if err != nil {
		t.Fatalf("Run(%s): %v", fixture, err)
	}
	return diags, d
}

// wantMarkers scans a fixture directory for "// want <analyzer>"
// end-of-line markers and returns the expected diagnostic keys in the
// same "file:line" form diagKeys produces.
func wantMarkers(t *testing.T, modRoot, dir, analyzer string) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", dir, err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile(%s): %v", path, err)
		}
		rel, err := filepath.Rel(modRoot, path)
		if err != nil {
			t.Fatalf("Rel: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			if name := strings.TrimSpace(line[idx+len("// want "):]); name == analyzer {
				want[fmt.Sprintf("%s:%d", filepath.ToSlash(rel), i+1)] = true
			}
		}
	}
	return want
}

func diagKeys(diags []lint.Diagnostic) map[string]bool {
	keys := make(map[string]bool)
	for _, d := range diags {
		keys[fmt.Sprintf("%s:%d", d.File, d.Line)] = true
	}
	return keys
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestAnalyzersCatchSeededViolations is the golden suite: each
// registered analyzer must report exactly the marked lines of its
// seeded fixture and nothing at all on the clean twin. The list is the
// registry itself, so an analyzer without its testdata/src/<name> and
// <name>_clean pair fails here.
func TestAnalyzersCatchSeededViolations(t *testing.T) {
	for _, a := range lint.Analyzers() {
		name := a.Name
		t.Run(name, func(t *testing.T) {
			diags, d := runFixture(t, name, name)
			want := wantMarkers(t, d.ModuleRoot(), fixtureDir(d, name), name)
			if len(want) == 0 {
				t.Fatalf("fixture %s carries no want markers", name)
			}
			for _, diag := range diags {
				if diag.Analyzer != name {
					t.Errorf("unexpected analyzer %q in finding %s", diag.Analyzer, diag)
				}
				if diag.Message == "" {
					t.Errorf("empty message in finding %s", diag)
				}
			}
			got := diagKeys(diags)
			for _, k := range sortedKeys(want) {
				if !got[k] {
					t.Errorf("seeded violation at %s not reported", k)
				}
			}
			for _, k := range sortedKeys(got) {
				if !want[k] {
					t.Errorf("unexpected finding at %s", k)
				}
			}
		})
		t.Run(name+"_clean", func(t *testing.T) {
			diags, _ := runFixture(t, name, name+"_clean")
			for _, diag := range diags {
				t.Errorf("clean twin flagged: %s", diag)
			}
		})
	}
}

// TestDiagnosticOrderDeterministic runs every analyzer over every
// seeded fixture twice, in one Run each, and requires identical reports
// in the one total order sortDiags defines: (file, line, col, analyzer,
// message). Upstream map iteration — the package cache, the suppression
// index, the analyzers' own maps — must never leak into output order.
func TestDiagnosticOrderDeterministic(t *testing.T) {
	run := func() []lint.Diagnostic {
		d := newDriver(t)
		var dirs []string
		for _, a := range lint.Analyzers() {
			dirs = append(dirs, fixtureDir(d, a.Name))
		}
		diags, err := d.Run(dirs, lint.Analyzers())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return diags
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two identical runs disagree:\nfirst:  %v\nsecond: %v", first, second)
	}
	if len(first) < len(lint.Analyzers()) {
		t.Fatalf("fixture suite produced %d findings for %d analyzers; nothing much to order", len(first), len(lint.Analyzers()))
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		order := cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col), strings.Compare(a.Analyzer, b.Analyzer), strings.Compare(a.Message, b.Message))
		if order >= 0 {
			t.Fatalf("report not strictly sorted by (file, line, col, analyzer, message): %s before %s", a, b)
		}
	}
}

// TestIgnoreDirectives checks the suppression machinery on the
// ignorefix fixture: the documented //lint:ignore silences its registry
// finding, while the reasonless and unknown-analyzer directives are
// reported as sjlint findings.
func TestIgnoreDirectives(t *testing.T) {
	diags, d := runFixture(t, "registry", "ignorefix")
	path := filepath.Join(d.ModuleRoot(), "internal", "lint", "testdata", "src", "ignorefix", "ignorefix.go")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	want := make(map[int]bool) // lines of directives that must be reported
	for i, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "//lint:ignore")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 2 || fields[0] == "nosuchcheck" {
			want[i+1] = true
		}
	}
	if len(want) != 2 {
		t.Fatalf("fixture should carry exactly 2 bad directives, found %d", len(want))
	}
	got := make(map[int]bool)
	for _, diag := range diags {
		if diag.Analyzer != "sjlint" {
			t.Errorf("finding escaped suppression: %s", diag)
			continue
		}
		got[diag.Line] = true
	}
	for line := range want {
		if !got[line] {
			t.Errorf("bad directive at line %d not reported", line)
		}
	}
	for line := range got {
		if !want[line] {
			t.Errorf("unexpected sjlint finding at line %d", line)
		}
	}
}

// TestModuleIsAnalyzerClean is the self-check: the tree that ships the
// analyzers must satisfy them. It also counts the packages analyzed
// against the module's own directories, so a loader that quietly
// narrows "..." fails here rather than passing on less code.
func TestModuleIsAnalyzerClean(t *testing.T) {
	d := newDriver(t)
	want := 0
	err := filepath.WalkDir(d.ModuleRoot(), func(p string, ent os.DirEntry, err error) error {
		if err != nil || !ent.IsDir() {
			return err
		}
		if name := ent.Name(); p != d.ModuleRoot() && (name == "testdata" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		for _, e := range ents {
			if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				want++
				break
			}
		}
		return err
	})
	if err != nil {
		t.Fatalf("walking the module: %v", err)
	}
	got := 0
	count := &lint.Analyzer{Name: "count", Run: func(*lint.Pass) { got++ }}
	diags, err := d.Run([]string{d.ModuleRoot() + "/..."}, append(lint.Analyzers(), count))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, diag := range diags {
		t.Errorf("module not analyzer-clean: %s", diag)
	}
	if got != want {
		t.Errorf("analyzed %d packages; the module has %d directories with non-test Go files outside testdata", got, want)
	}
}

// TestPatternsMatchingNoCodeFail requires an error, which sjlint turns
// into exit status 2, for patterns that leave nothing to analyze: one
// that matches no package and one that names a package of test files
// only. Patterns resolve from the driver's directory, here the module
// root.
func TestPatternsMatchingNoCodeFail(t *testing.T) {
	d, err := lint.NewDriver("../..")
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	for _, pat := range []string{"./nosuch/...", "./internal/chaos"} {
		if diags, err := d.Run([]string{pat}, lint.Analyzers()); err == nil {
			t.Errorf("Run(%s) = %v, nil; want an error", pat, diags)
		}
	}
}
