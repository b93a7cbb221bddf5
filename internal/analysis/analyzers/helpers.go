// Package analyzers holds the repo-specific checks; TestWholeTreeClean
// runs them over the whole module in every test run. Each analyzer
// enforces one invariant the reproduction depends on:
//
//   - determinism: simulation and experiment code must not consult
//     wall-clock time, the global math/rand generators, or emit output
//     in map-iteration order — byte-identical reruns are a contract
//     (the CI diffs sequential vs parallel benchtables output).
//   - errcheck: error returns in internal packages must be consumed.
//
// A rule that the compiler, go vet, a runtime check or a CI step
// already holds has no analyzer here: units.Freq's dimension is its
// type's, lock copies are vet's copylocks,
// metric and span names are checked where the telemetry registry and
// the tracer accept them, and CI greps for raw goroutines in
// deterministic code.
//
// Analyzers only report; none rewrites source.
package analyzers

import (
	"go/ast"
	"go/types"

	"goear/internal/analysis"
)

// All returns the full analyzer suite sorted by name.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism,
		errcheck,
	}
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
