package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"goear/internal/analysis"
)

// unitsafety enforces dimensional discipline on the internal/units
// quantity types (Freq, Power, Energy, Seconds). The types are all
// float64 underneath, so Go's checker happily permits conversions that
// are dimensional nonsense — units.Freq(somePower) compiles. This
// analyzer rejects:
//
//   - conversions from one unit kind directly to another,
//   - products and quotients of two non-constant values of the same
//     kind (Freq·Freq is Hz², Freq/Freq is a dimensionless ratio —
//     neither is a Freq),
//   - raw non-zero numeric literals added to, subtracted from,
//     compared against, or passed where a unit value is expected
//     (write 2.4*units.GHz, not 2.4e9).
//
// Scaling by untyped constants (2 * f, f / 2) stays legal, as do the
// canonical constructions value*unit-constant.
var unitsafety = &analysis.Analyzer{
	Name: "unitsafety",
	Doc: "flag cross-kind conversions between internal/units quantities, same-kind " +
		"products/quotients, and raw numeric literals used where a unit value is expected",
	Run: runUnitSafety,
}

// unitKindOf returns the quantity name ("Freq", "Power", ...) when t
// is a named numeric type declared in an internal/units package.
func unitKindOf(t types.Type) (string, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !analysis.PathMatches(obj.Pkg().Path(), "internal/units") {
		return "", false
	}
	b, ok := named.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsNumeric == 0 {
		return "", false
	}
	return obj.Name(), true
}

func runUnitSafety(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkUnitConversion(pass, n)
				checkUnitArgs(pass, n)
			case *ast.BinaryExpr:
				checkUnitBinary(pass, n)
			case *ast.CompositeLit:
				checkUnitComposite(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkUnitConversion flags T(x) where T and x are different unit
// kinds: laundering a Power into a Freq through a conversion defeats
// the whole point of the quantity types.
func checkUnitConversion(pass *analysis.Pass, call *ast.CallExpr) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	dst, ok := unitKindOf(tv.Type)
	if !ok {
		return
	}
	srcType := pass.TypeOf(call.Args[0])
	if srcType == nil {
		return
	}
	src, ok := unitKindOf(srcType)
	if !ok || src == dst {
		return
	}
	pass.Reportf(call.Pos(), "conversion from units.%s to units.%s mixes dimensions; convert through an explicit physical relation instead", src, dst)
}

// checkUnitBinary flags same-kind products/quotients and raw literals
// in additive or comparison positions.
func checkUnitBinary(pass *analysis.Pass, bin *ast.BinaryExpr) {
	xt, yt := pass.TypeOf(bin.X), pass.TypeOf(bin.Y)
	if xt == nil || yt == nil {
		return
	}
	xk, xok := unitKindOf(xt)
	yk, yok := unitKindOf(yt)

	switch bin.Op {
	case token.MUL, token.QUO:
		// value * unit-constant (2.4 * GHz) and scaling by untyped
		// constants are the sanctioned idioms, so only flag when both
		// operands are non-constant unit values of the same kind.
		if xok && yok && xk == yk &&
			!isConstExpr(pass.Info, bin.X) && !isConstExpr(pass.Info, bin.Y) {
			what := "units." + xk + "²"
			if bin.Op == token.QUO {
				what = "a dimensionless ratio"
			}
			pass.Reportf(bin.OpPos, "%s of two units.%s values yields %s, not a units.%s; convert to float64 for the arithmetic", opName(bin.Op), xk, what, xk)
		}
	case token.ADD, token.SUB, token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		// An untyped literal next to a unit value is implicitly
		// converted, so the checker records it with the unit type too;
		// test the syntax, not the recorded kind.
		if xok {
			reportRawLiteral(pass, bin.Y, xk)
		}
		if yok {
			reportRawLiteral(pass, bin.X, yk)
		}
	}
}

func opName(op token.Token) string {
	if op == token.QUO {
		return "quotient"
	}
	return "product"
}

// reportRawLiteral flags e when it is a bare non-zero numeric literal
// standing in for a unit value.
func reportRawLiteral(pass *analysis.Pass, e ast.Expr, kind string) {
	isLit, isZero := numericLiteral(pass.Info, e)
	if !isLit || isZero {
		return
	}
	pass.Reportf(e.Pos(), "raw numeric literal used as a units.%s; spell the quantity with a unit constant (e.g. 2.4*units.GHz, 300*units.Watt)", kind)
}

// checkUnitArgs flags raw literals passed to parameters of unit type.
func checkUnitArgs(pass *analysis.Pass, call *ast.CallExpr) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversions are handled by checkUnitConversion
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if kind, ok := unitKindOf(pt); ok {
			reportRawLiteral(pass, arg, kind)
		}
	}
}

// checkUnitComposite flags raw literals assigned to struct fields (or
// slice/array/map elements) of unit type inside composite literals.
func checkUnitComposite(pass *analysis.Pass, lit *ast.CompositeLit) {
	lt := pass.TypeOf(lit)
	if lt == nil {
		return
	}
	switch u := lt.Underlying().(type) {
	case *types.Struct:
		fieldByName := map[string]types.Type{}
		for i := 0; i < u.NumFields(); i++ {
			fieldByName[u.Field(i).Name()] = u.Field(i).Type()
		}
		for i, el := range lit.Elts {
			var ft types.Type
			val := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					ft = fieldByName[key.Name]
				}
				val = kv.Value
			} else if i < u.NumFields() {
				ft = u.Field(i).Type()
			}
			if ft == nil {
				continue
			}
			if kind, ok := unitKindOf(ft); ok {
				reportRawLiteral(pass, val, kind)
			}
		}
	case *types.Slice, *types.Array, *types.Map:
		var et types.Type
		switch uu := u.(type) {
		case *types.Slice:
			et = uu.Elem()
		case *types.Array:
			et = uu.Elem()
		case *types.Map:
			et = uu.Elem()
		}
		kind, ok := unitKindOf(et)
		if !ok {
			return
		}
		for _, el := range lit.Elts {
			val := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			reportRawLiteral(pass, val, kind)
		}
	}
}
