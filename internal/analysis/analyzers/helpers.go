// Package analyzers holds the repo-specific goearvet checks. Each
// analyzer enforces one invariant the reproduction depends on:
//
//   - determinism: simulation and experiment code must not consult
//     wall-clock time, the global math/rand generators, or emit output
//     in map-iteration order — byte-identical reruns are a contract
//     (the CI diffs sequential vs parallel benchtables output).
//   - unitsafety: quantities from internal/units must not be mixed
//     across dimensions or fed from raw numeric literals.
//   - errcheck: error returns in internal packages must be consumed.
//   - concurrency: no by-value copies of sync primitives, and no raw
//     goroutines in simulation/experiment code (fan-out goes through
//     internal/par so determinism and bounds are preserved).
//   - telemetry: metric names registered with the telemetry registry
//     must be package-level constants matching ^goear_[a-z0-9_]+$,
//     each registered at exactly one call site.
//   - fixture: test helpers build spill journals and wire frames
//     through the versioned codec constructors, never by hand.
//
// Analyzers only report; none rewrites source.
package analyzers

import (
	"go/ast"
	"go/constant"
	"go/types"

	"goear/internal/analysis"
)

// All returns the full analyzer suite sorted by name.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		concurrency,
		determinism,
		errcheck,
		fixture,
		telemetry,
		unitsafety,
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

// isConstExpr reports whether the checker recorded a compile-time
// value for the expression.
func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// numericLiteral unwraps parentheses and a leading +/- and reports
// whether e is a raw numeric literal, along with whether it is zero.
func numericLiteral(info *types.Info, e ast.Expr) (isLit, isZero bool) {
	e = stripParens(e)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = stripParens(u.X)
	}
	if _, ok := e.(*ast.BasicLit); !ok {
		return false, false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false, false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float && v.Kind() != constant.Int {
		return false, false
	}
	f, _ := constant.Float64Val(v)
	return true, f == 0
}
