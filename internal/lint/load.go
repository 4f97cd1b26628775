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
	"sort"
	"strconv"
)

// listedPackage is the slice of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// goList lists the packages matched by patterns, from dir, together with
// everything they import, dependencies first. -export has the go command
// compile each package and name its export data file, which is where the
// loader reads the standard library from. The go command is the one
// module-aware oracle the standard library offers, so the loader shells
// out to it for discovery only; parsing and typechecking stay in-process.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %w: %s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(&out)
	var pkgs []listedPackage
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// loader resolves imports for one load. Every non-standard package is
// typechecked from source exactly once and handed to each package that
// imports it; standard-library packages are read from compiler export data
// by go/importer's "gc" importer. Both halves key by import path, so a load
// never holds two *types.Package for one path, and a type named in one
// package is identical to the same type seen from another (which is what
// lets the CHA call graph match interface methods to their implementations
// across packages).
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	export map[string]string // standard import path -> export data file
	source map[string]*types.Package
}

func newLoader() *loader {
	l := &loader{
		fset:   token.NewFileSet(),
		export: map[string]string{},
		source: map[string]*types.Package{},
	}
	l.std = importer.ForCompiler(l.fset, "gc", l.lookup)
	return l
}

// lookup opens a standard-library package's export data for the gc
// importer.
func (l *loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.export[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.source[path]; ok {
		return p, nil
	}
	return l.std.Import(path)
}

// load typechecks every non-standard package in listed, which must be in
// dependency order, and returns the ones the patterns matched.
func (l *loader) load(listed []listedPackage) ([]*Package, error) {
	var out []*Package
	for _, lp := range listed {
		if lp.Standard {
			l.export[lp.ImportPath] = lp.Export
			continue
		}
		var paths []string
		for _, name := range lp.GoFiles {
			paths = append(paths, filepath.Join(lp.Dir, name))
		}
		files, err := l.parse(paths)
		if err != nil {
			return nil, err
		}
		pkg, err := l.check(lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		if !lp.DepOnly {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// LoadPackages loads and typechecks every package matched by patterns
// (e.g. "./...") relative to dir. Loading fails on the first parse or type
// error: the analyzers only run over well-typed code.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	return newLoader().load(listed)
}

// LoadDir loads the single package rooted at dir, typechecked under the
// synthetic import path asPath. The golden-file tests use it to place
// fixture packages inside an analyzer's scope (e.g. a seeded-stage fixture
// under "repro/internal/qc/...") without touching the real tree.
func LoadDir(dir, asPath string) (*Package, error) {
	pkgs, err := LoadDirs([]DirSpec{{Dir: dir, AsPath: asPath}})
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

// DirSpec names one fixture directory and the synthetic import path to
// typecheck it under.
type DirSpec struct {
	Dir    string
	AsPath string
}

// LoadDirs loads several fixture directories in order under their
// synthetic import paths; later directories may import earlier ones, the
// shape a cross-package taint flow needs. Every other import is resolved
// by the same loader LoadPackages uses, listed from the first fixture's
// directory.
func LoadDirs(specs []DirSpec) ([]*Package, error) {
	l := newLoader()
	fixtures := map[string]bool{}
	for _, spec := range specs {
		fixtures[spec.AsPath] = true
	}
	parsed := make([][]*ast.File, len(specs))
	imports := map[string]bool{}
	for i, spec := range specs {
		paths, err := filepath.Glob(filepath.Join(spec.Dir, "*.go"))
		if err != nil {
			return nil, fmt.Errorf("lint: globbing %s: %w", spec.Dir, err)
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("lint: no Go files in %s", spec.Dir)
		}
		sort.Strings(paths)
		if parsed[i], err = l.parse(paths); err != nil {
			return nil, err
		}
		for _, f := range parsed[i] {
			for _, imp := range f.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil && !fixtures[path] {
					imports[path] = true
				}
			}
		}
	}
	if len(imports) > 0 {
		patterns := make([]string, 0, len(imports))
		for path := range imports {
			patterns = append(patterns, path)
		}
		sort.Strings(patterns)
		listed, err := goList(specs[0].Dir, patterns)
		if err != nil {
			return nil, err
		}
		if _, err := l.load(listed); err != nil {
			return nil, err
		}
	}
	out := make([]*Package, len(specs))
	for i, spec := range specs {
		pkg, err := l.check(spec.AsPath, spec.Dir, parsed[i])
		if err != nil {
			return nil, err
		}
		out[i] = pkg
	}
	return out, nil
}

// parse parses the given files, comments included.
func (l *loader) parse(filePaths []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, p := range filePaths {
		f, err := parser.ParseFile(l.fset, p, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// check typechecks files as the package at path and makes it importable
// by the packages checked after it.
func (l *loader) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	l.source[path] = tpkg
	return &Package{
		Path:  path,
		Name:  tpkg.Name(),
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
