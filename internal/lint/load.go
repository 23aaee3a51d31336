package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Path is the import path ("spatialjoin/internal/pbsm").
	Path string
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Driver runs analyzers over packages of one module. The go command
// resolves the patterns and compiles every package they import; the
// driver parses and type-checks only the packages the patterns name,
// since the analyzers need their syntax and types.Info, and imports
// everything else from the compiler's export data.
type Driver struct {
	Fset *token.FileSet

	dir     string // where patterns resolve
	modRoot string

	diags []Diagnostic
}

// NewDriver prepares a driver whose patterns resolve from dir, which
// must lie inside a module.
func NewDriver(dir string) (*Driver, error) {
	out, err := goCmd(dir, "env", "GOMOD")
	if err != nil {
		return nil, err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return nil, fmt.Errorf("lint: %s is not inside a module", dir)
	}
	return &Driver{Fset: token.NewFileSet(), dir: dir, modRoot: filepath.Dir(gomod)}, nil
}

// ModuleRoot returns the absolute module root directory.
func (d *Driver) ModuleRoot() string { return d.modRoot }

func (d *Driver) relPath(file string) string {
	if rel, err := filepath.Rel(d.modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go %s: %w\n%s", args[0], err, stderr.Bytes())
	}
	return out, nil
}

// listed is the part of `go list -json` output the driver reads.
type listed struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	DepOnly                 bool
	Error                   *struct{ Err string }
}

// Load resolves patterns the way `go vet` does and type-checks each
// package they name that has non-test Go files. Analysis covers non-test
// files only: the invariants the analyzers enforce are production-code
// contracts, and tests intentionally exercise forbidden states.
func (d *Driver) Load(patterns []string) ([]*Package, error) {
	out, err := goCmd(d.dir, append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var named []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: reading go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		exports[p.ImportPath] = p.Export
		if !p.DepOnly && len(p.GoFiles) > 0 {
			named = append(named, p)
		}
	}
	if len(named) == 0 {
		return nil, fmt.Errorf("lint: no package with non-test Go files matches %s", strings.Join(patterns, " "))
	}

	imp := importer.ForCompiler(d.Fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	var pkgs []*Package
	for _, p := range named {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(d.Fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, d.Fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{Path: p.ImportPath, Files: files, Types: tpkg, Info: info})
	}
	return pkgs, nil
}
