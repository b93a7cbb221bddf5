// Package analysis is a small, stdlib-only static-analysis framework
// for this repository. It loads the module's packages with go/parser
// and type-checks them with go/types, then runs repo-specific
// analyzers over the typed syntax trees.
//
// The framework exists because two guarantees this reproduction rests
// on — deterministic simulation output and consumed errors — are
// invariants of the *source*, not just of any particular test run.
// Runtime tests catch a violation only on the inputs they happen to
// exercise; the analyzers in internal/analysis/analyzers reject the
// violating code outright. There is no suppression directive.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding, positioned in the loaded file set.
type Diagnostic struct {
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string
	// File is the path of the offending file as it was loaded.
	File string
	// Line and Col are the 1-based position within File.
	Line int
	Col  int
	// Message describes the violation.
	Message string
}

// pos formats the diagnostic position as file:line:col.
func (d Diagnostic) pos() string {
	return fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
}

// String renders the diagnostic in the conventional one-line vet
// format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.pos(), d.Message, d.Analyzer)
}

// Analyzer is one named check. Analyzers are stateless; all per-run
// state lives on the Pass.
type Analyzer struct {
	// Name identifies the analyzer in its findings. It must be a
	// single lowercase word.
	Name string
	// Scope restricts the analyzer to packages whose import path
	// contains one of the given segment sequences (see PathMatches).
	// An empty scope applies the analyzer to every loaded package.
	Scope []string
	// Run analyzes one package and reports findings through the pass.
	Run func(*Pass) error
}

// appliesTo reports whether the analyzer's scope covers the package
// with the given import path.
func (a *Analyzer) appliesTo(path string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if PathMatches(path, s) {
			return true
		}
	}
	return false
}

// PathMatches reports whether the import path contains pattern as a
// consecutive run of path segments. "goear/internal/sim" matches
// patterns "internal/sim", "sim" and "goear/internal/sim", but not
// "internal/simx" or "al/sim".
func PathMatches(path, pattern string) bool {
	ps := splitSegments(path)
	ts := splitSegments(pattern)
	if len(ts) == 0 || len(ts) > len(ps) {
		return false
	}
	for i := 0; i+len(ts) <= len(ps); i++ {
		ok := true
		for j := range ts {
			if ps[i+j] != ts[j] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func splitSegments(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '/' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package import path as the loader registered it.
	Path string
	// Files are the package's non-test syntax trees, in file order.
	Files []*ast.File
	// Pkg and Info are the go/types results for the package.
	Pkg  *types.Package
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil if the checker did
// not record one.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// Run executes every applicable analyzer over every package and
// returns the findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if !a.appliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
