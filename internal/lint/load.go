package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Path is the import path ("spatialjoin/internal/pbsm").
	Path string
	// Dir is the absolute directory.
	Dir string
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Driver loads packages of the enclosing module and runs analyzers over
// them. It type-checks project packages itself (topologically, via its
// own importer) and delegates standard-library imports to the stdlib
// source importer, so the whole pipeline needs nothing beyond GOROOT
// sources — no export data, no x/tools.
type Driver struct {
	Fset *token.FileSet

	modRoot string
	modPath string

	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path, nil while loading
	loading map[string]bool

	diags []Diagnostic
}

// NewDriver locates the module containing dir (any directory at or
// below the module root) and prepares a driver for it.
func NewDriver(dir string) (*Driver, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, path, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not support ImporterFrom")
	}
	return &Driver{
		Fset:    fset,
		modRoot: root,
		modPath: path,
		std:     std,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// ModuleRoot returns the absolute module root directory.
func (d *Driver) ModuleRoot() string { return d.modRoot }

// findModule walks up from dir to the nearest go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	for cur := dir; ; {
		data, rerr := os.ReadFile(filepath.Join(cur, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return cur, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", cur)
		}
		parent := filepath.Dir(cur)
		if parent == cur {
			return "", "", fmt.Errorf("lint: no go.mod found at or above %s", dir)
		}
		cur = parent
	}
}

// Expand resolves command-line patterns to package directories. "./..."
// (or "...") walks the whole module; a pattern ending in "/..." walks
// that subtree; anything else names a single directory. Walks skip
// testdata, vendor and hidden directories — but a pattern rooted inside
// a testdata tree is honored, which is how the analyzer tests load
// their fixture packages.
func (d *Driver) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := d.walk(d.modRoot, add); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := d.absDir(strings.TrimSuffix(pat, "/..."))
			if err := d.walk(root, add); err != nil {
				return nil, err
			}
		default:
			dir := d.absDir(pat)
			if !hasGoFiles(dir) {
				return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
			}
			add(dir)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// absDir resolves a pattern to an absolute directory: absolute paths
// and paths relative to the working directory are used as-is; module
// import paths are mapped under the module root.
func (d *Driver) absDir(pat string) string {
	if filepath.IsAbs(pat) {
		return filepath.Clean(pat)
	}
	if rest, ok := strings.CutPrefix(pat, d.modPath+"/"); ok {
		return filepath.Join(d.modRoot, rest)
	}
	if abs, err := filepath.Abs(pat); err == nil {
		if st, err := os.Stat(abs); err == nil && st.IsDir() {
			return abs
		}
	}
	return filepath.Join(d.modRoot, pat)
}

func (d *Driver) walk(root string, add func(string)) error {
	return filepath.WalkDir(root, func(p string, ent os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !ent.IsDir() {
			return nil
		}
		name := ent.Name()
		if p != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			add(p)
		}
		return nil
	})
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// Load type-checks the packages in dirs (and, transitively, every
// project package they import). Analysis covers non-test files only:
// the invariants the analyzers enforce are production-code contracts,
// and tests intentionally exercise forbidden states.
func (d *Driver) Load(dirs []string) ([]*Package, error) {
	var out []*Package
	for _, dir := range dirs {
		pkg, err := d.loadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// importPath maps an absolute directory inside the module to its import
// path.
func (d *Driver) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(d.modRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, d.modRoot)
	}
	if rel == "." {
		return d.modPath, nil
	}
	return d.modPath + "/" + filepath.ToSlash(rel), nil
}

func (d *Driver) relPath(file string) string {
	if rel, err := filepath.Rel(d.modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

func (d *Driver) loadDir(dir string) (*Package, error) {
	path, err := d.importPath(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := d.pkgs[path]; ok {
		return pkg, nil
	}
	if d.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	d.loading[path] = true
	defer delete(d.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(d.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: d}
	tpkg, err := conf.Check(path, d.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	d.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (d *Driver) Import(path string) (*types.Package, error) {
	return d.ImportFrom(path, d.modRoot, 0)
}

// ImportFrom implements types.ImporterFrom: project packages are loaded
// and type-checked by the driver itself; everything else is resolved
// from GOROOT sources by the stdlib source importer.
func (d *Driver) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == d.modPath || strings.HasPrefix(path, d.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, d.modPath), "/")
		pkg, err := d.loadDir(filepath.Join(d.modRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return d.std.ImportFrom(path, srcDir, mode)
}
