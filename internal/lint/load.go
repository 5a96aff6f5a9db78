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

// Package is one loaded, parsed and typechecked module package: the unit
// analyzers run over. Files holds the package's non-test source files:
// test files never reach the analyzers, so a //lint:ignore in a _test.go
// file suppresses nothing and is never checked.
type Package struct {
	Path  string // import path, e.g. enduratrace/internal/serve
	Files []*ast.File
	Info  *types.Info // Uses only: the analyzers resolve called functions
}

// Load is the result of loading a module tree for analysis.
type Load struct {
	Root       string // module root (directory holding go.mod)
	ModulePath string // module path from go.mod
	Fset       *token.FileSet
	Pkgs       []*Package // the packages matched by the patterns, load order
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// LoadPackages parses and typechecks the module packages matched by
// patterns (e.g. "./..."), rooted at the directory holding go.mod. It
// shells out to `go list -export -deps` once: the go toolchain compiles
// the tree and hands back export data for every dependency (stdlib and
// intra-module alike), so each target package typechecks independently
// against compiled import data — no source-order topo sort, and the
// types seen by analyzers are exactly the compiler's. Code that does not
// compile fails the load with the toolchain's error text.
func LoadPackages(root string, patterns []string) (*Load, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	args := append([]string{"list", "-json", "-export", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && !p.DepOnly && strings.HasPrefix(p.ImportPath, modPath) {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("lint: no module packages match %s", strings.Join(patterns, " "))
	}

	fset := token.NewFileSet()
	imp := &exportImporter{inner: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	})}

	out := &Load{Root: root, ModulePath: modPath, Fset: fset}
	for _, t := range targets {
		pkg := &Package{Path: t.ImportPath}
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %v", err)
			}
			pkg.Files = append(pkg.Files, f)
		}
		pkg.Info = &types.Info{Uses: make(map[*ast.Ident]types.Object)}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(t.ImportPath, fset, pkg.Files, pkg.Info); err != nil {
			// go list already compiled this package, so a type error here
			// is a loader bug (importer mismatch), not a user error — but
			// surface it either way.
			return nil, fmt.Errorf("lint: typecheck %s: %v", t.ImportPath, err)
		}
		out.Pkgs = append(out.Pkgs, pkg)
	}
	return out, nil
}

// exportImporter wraps the gc export-data importer, special-casing
// "unsafe" (which has no export file).
type exportImporter struct {
	inner types.Importer
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.inner.Import(path)
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %v (lint must run inside a module)", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// FindModuleRoot walks upward from dir to the nearest directory holding
// a go.mod — the root lint loads and reports relative to.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
