// Package analysis holds the module to the source-level rules that its
// runtime tests can only sample:
//
//   - determinism: no wall clock, no global math/rand generator and no
//     output in map-iteration order, so every run is a pure function of
//     its seed (CI cmps benchtables at -parallel 1 against -parallel 8);
//   - errcheck: no error result dropped in statement position;
//   - the rule table (rules.go): where a named object or a syntactic
//     form may be used, one exact count and one coverage figure.
//
// Each check is a plain function over one loaded package that renders
// its findings as "file:line:col: message (check)". Both hold every
// package under internal/; determinism skips internal/telemetry, where
// WallClock adapts the wall clock for the binaries. The table reads the
// whole module. TestWholeTreeClean runs all three in every go test run;
// there is no suppression directive. The loader type-checks from source
// with the standard library alone.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// pass is one check's walk over one package.
type pass struct {
	*pkg
	check string
	found []string
}

// reportf records a finding at pos.
func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	p.found = append(p.found, fmt.Sprintf("%s: %s (%s)", p.fset.Position(pos), fmt.Sprintf(format, args...), p.check))
}

// scope reports which checks hold the module package at path: both
// hold every package under internal/, except that determinism skips
// internal/telemetry.
func (l *Loader) scope(path string) (det, errs bool) {
	errs = strings.HasPrefix(path, l.module+"/internal/")
	return errs && path != l.module+"/internal/telemetry", errs
}

// lint runs both checks and the rule table over the module in import-path order.
func (l *Loader) lint() ([]string, error) {
	var paths []string
	for path := range l.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var found []string
	var pkgs []*pkg
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
		det, errs := l.scope(path)
		if det {
			found = append(found, determinism(p)...)
		}
		if errs {
			found = append(found, errcheck(p)...)
		}
	}
	return append(found, l.breaches(rules, pkgs)...), nil
}

// stripParens removes any number of surrounding parentheses.
func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleePkgFunc resolves a call of the form pkg.Fn(...) where pkg is
// an imported package name, returning the package import path and the
// function name.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, fn string, ok bool) {
	sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
