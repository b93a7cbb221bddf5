package analysis

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
	"strings"
)

// pkg is one loaded, type-checked package.
type pkg struct {
	fset *token.FileSet
	// files are the parsed non-test files the default build selects
	// (one side of a build-tag switch), sorted by file name.
	files []*ast.File
	tests []*ast.File // the directory's _test.go files, parsed, not type-checked
	types *types.Package
	info  *types.Info
}

// Loader type-checks the packages of one module from source. A module
// import resolves to its directory; anything else goes through the
// source importer, which type-checks the standard library from
// GOROOT/src. Each package is checked once per loader.
type Loader struct {
	fset   *token.FileSet
	std    types.Importer
	module string
	dirs   map[string]string // import path -> directory
	pkgs   map[string]*pkg
}

// NewLoader reads root/go.mod for the module path and registers every
// directory under root that holds a non-test .go file, skipping
// testdata and hidden or underscored directories.
func NewLoader(root string) (*Loader, error) {
	module, err := moduleName(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		module: module,
		dirs:   map[string]string{},
		pkgs:   map[string]*pkg{},
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !isSource(name) {
			return nil
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		l.dirs[filepath.ToSlash(filepath.Join(module, rel))] = dir
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walk module %s: %w", root, err)
	}
	return l, nil
}

// Check type-checks the package in dir under importPath, resolving its
// imports against the module.
func (l *Loader) Check(importPath, dir string) error {
	l.dirs[importPath] = dir
	_, err := l.load(importPath)
	return err
}

// load parses and type-checks the package registered under path
// (cached after the first call).
func (l *Loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		return nil, fmt.Errorf("analysis: package %s is not registered", path)
	}
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files, tests []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		mode, into := parser.ParseComments, &files
		if !isSource(e.Name()) {
			mode, into = parser.SkipObjectResolution, &tests
		} else if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		} else if !ok {
			continue // the other side of a build-tag switch, as go build leaves it out
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, mode)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse: %w", err)
		}
		*into = append(*into, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	p, err := l.typeCheck(path, files, tests)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// typeCheck type-checks files as the package path, beside tests, and
// caches nothing, so a test can check a mutant under a held path.
func (l *Loader) typeCheck(path string, files, tests []*ast.File) (*pkg, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if _, ok := l.dirs[imp]; !ok {
			return l.std.Import(imp)
		}
		p, err := l.load(imp)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	})}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	return &pkg{fset: l.fset, files: files, tests: tests, types: tpkg, info: info}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// isSource reports whether a file name is a non-test Go source.
func isSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// moduleName extracts the module path from a go.mod file.
func moduleName(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module"); ok {
			if name := strings.Trim(strings.TrimSpace(rest), `"`); name != "" {
				return name, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}
