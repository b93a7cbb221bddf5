// Package analyzers holds the repo-specific goearvet checks. Each
// analyzer enforces one invariant the reproduction depends on:
//
//   - determinism: simulation and experiment code must not consult
//     wall-clock time, the global math/rand generators, or emit output
//     in map-iteration order — byte-identical reruns are a contract
//     (the CI diffs sequential vs parallel benchtables output).
//   - unitsafety: quantities from internal/units must not be mixed
//     across dimensions or fed from raw numeric literals.
//   - msrfield: MSR bit-field mask/shift pairs must be contiguous,
//     non-overlapping, match their documented bit ranges, and agree
//     between Encode*/Decode* pairs.
//   - errcheck: error returns in internal packages must be consumed.
//   - concurrency: no by-value copies of sync primitives, and no raw
//     goroutines in simulation/experiment code (fan-out goes through
//     internal/par so determinism and bounds are preserved).
//   - telemetry: metric names registered with the telemetry registry
//     must be package-level constants matching ^goear_[a-z0-9_]+$,
//     each registered at exactly one call site.
//   - policyreg: every Policy implementation is registered exactly
//     once under a declared name constant whose value round-trips
//     config parsing.
//   - conftag: config keys, the struct fields their parser cases
//     assign, and the fields' conf struct tags agree — no dead keys,
//     no stale or missing tags.
//   - fixture: test helpers build spill journals and wire frames
//     through the versioned codec constructors, never by hand.
//
// Analyzers only report; none rewrites source.
package analyzers

import (
	"go/ast"
	"go/constant"
	"go/types"
	"math/bits"

	"goear/internal/analysis"
)

// All returns the full analyzer suite sorted by name.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		concurrency,
		conftag,
		determinism,
		errcheck,
		fixture,
		msrfield,
		policyreg,
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

// constUint64 returns the compile-time unsigned value of an
// expression, if the type checker recorded one.
func constUint64(info *types.Info, e ast.Expr) (uint64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	u, exact := constant.Uint64Val(v)
	if !exact {
		return 0, false
	}
	return u, true
}

// maskField describes a contiguous bit run: lo is the lowest bit
// index, width the number of bits. A zero-width field means the mask
// had holes (non-contiguous) and is reported separately.
type maskField struct {
	lo, width int
}

// contiguousRun decomposes a mask into its bit run. ok is false when
// the mask is zero or has holes (e.g. 0x7F7F).
func contiguousRun(mask uint64) (lo, width int, ok bool) {
	if mask == 0 {
		return 0, 0, false
	}
	lo = bits.TrailingZeros64(mask)
	run := mask >> lo
	if run&(run+1) != 0 {
		return 0, 0, false
	}
	return lo, bits.OnesCount64(mask), true
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
