package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader type-checks packages of one module from source, with no
// dependency on go/packages. Module-local imports resolve recursively
// through the loader itself; standard-library imports resolve through the
// compiler's source importer. Both are cached, so a package is checked at
// most once per Loader.
type Loader struct {
	Root   string // module root directory
	Module string // module path from go.mod
	Fset   *token.FileSet

	std   types.ImporterFrom
	cache map[string]*Package
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewLoader returns a loader for the module rooted at dir (the directory
// containing go.mod).
func NewLoader(dir string) (*Loader, error) {
	mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", dir)
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{Root: dir, Module: module, Fset: fset, std: std, cache: map[string]*Package{}}, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom, routing module-local paths to
// the source loader and everything else to the standard importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// Load parses and type-checks the module-local package with the given
// import path. Test files (_test.go) are excluded: they may form separate
// packages and are not part of the shipped build.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		return p, nil
	}
	l.cache[path] = nil // cycle guard

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	p := &Package{Path: path, Files: files, Pkg: pkg, Info: info}
	l.cache[path] = p
	return p, nil
}

// Pass adapts a loaded package for the analyzers.
func (p *Package) Pass(fset *token.FileSet) *Pass {
	return &Pass{Fset: fset, Files: p.Files, Pkg: p.Pkg, Info: p.Info, Path: p.Path}
}

// sourceFiles lists the non-test .go files of dir that build on the
// host platform, sorted. Build constraints — `//go:build` lines and
// `_GOOS`/`_GOARCH` filename suffixes — are honored via go/build, so a
// package with per-platform variants of one function (e.g. the journal's
// fdatasync wrapper) type-checks exactly as the compiler would see it
// rather than with both variants redeclared.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Walk discovers every package directory under root (skipping testdata,
// hidden directories, and vendor) and returns their import paths, sorted.
func (l *Loader) Walk() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		names, err := sourceFiles(path)
		if err != nil || len(names) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.Root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.Module)
		} else {
			paths = append(paths, l.Module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
