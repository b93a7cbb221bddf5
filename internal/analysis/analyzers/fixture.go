package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"goear/internal/analysis"
)

// fixture polices test-helper packages that fabricate persisted
// artefacts: spill journals, wire frames and job accounting records
// must be produced through the versioned codec constructors, never
// hand-rolled. A literal wire.Frame or accounting.Record bakes today's
// layout into a fixture, so a codec version bump rots the fixture
// silently instead of failing loudly at the constructor; and since the
// wire codec is the only serialisation of the ingest path — socket and
// journal alike — any encoding/json call on a batch, frame or journal
// entry fabricates a format nothing reads.
var fixture = &analysis.Analyzer{
	Name: "fixture",
	Doc: "require test helpers to build spill journals, wire frames and job records " +
		"through the versioned codec constructors instead of hand-rolled literals",
	Scope: []string{"internal/loadgen", "eardbd/dbdtest"},
	Run:   runFixture,
}

func runFixture(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				checkFixtureLit(pass, n)
			case *ast.CallExpr:
				checkFixtureJSON(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkFixtureLit flags hand-rolled wire.Frame literals,
// hand-formatted batch IDs inside wire.Batch literals, and hand-rolled
// accounting.Record literals.
func checkFixtureLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	named := namedTypeOf(pass.TypeOf(lit))
	if named == nil {
		return
	}
	if isAccountingType(named) && named.Obj().Name() == "Record" {
		pass.Reportf(lit.Pos(), "accounting.Record composite literal in a fixture helper; build job records with accounting.NewRecord so the codec version is stamped and the fields validated")
		return
	}
	if !isWireType(named) {
		return
	}
	switch named.Obj().Name() {
	case "Frame":
		pass.Reportf(lit.Pos(), "wire.Frame composite literal in a fixture helper; build frames with the codec's wire.Encode*/Append* constructors so the header's magic, version, type, flags and length stay consistent")
	case "Batch":
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "ID" {
				continue
			}
			checkBatchID(pass, kv.Value)
		}
	}
}

// checkBatchID flags ID fields assembled with fmt.Sprintf from a
// literal format (`"%s/%d"` or any other): the batch-ID wire format
// lives in one place (eardbd.BatchID) and fixtures must call it, not
// re-derive it.
func checkBatchID(pass *analysis.Pass, val ast.Expr) {
	call, ok := stripParens(val).(*ast.CallExpr)
	if !ok || !isPkgCall(pass, call, "fmt", "Sprintf") || len(call.Args) < 1 {
		return
	}
	if _, ok := stripParens(call.Args[0]).(*ast.BasicLit); ok {
		pass.Reportf(val.Pos(), "batch ID assembled with fmt.Sprintf; use eardbd.BatchID so the node/sequence format has one owner")
	}
}

// checkFixtureJSON flags any call into encoding/json — function or
// method, encoding or decoding — that is handed a wire.Batch, a
// wire.Frame or a journal entry (eardbd.EncodedBatch).
func checkFixtureJSON(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return
	}
	for _, arg := range call.Args {
		named := namedTypeOf(pass.TypeOf(arg))
		if named == nil {
			continue
		}
		name := named.Obj().Name()
		switch {
		case isWireType(named) && (name == "Batch" || name == "Frame"):
			name = "wire." + name
		case isPkgType(named, "eardbd") && name == "EncodedBatch":
			name = "journal entry (eardbd." + name + ")"
		default:
			continue
		}
		pass.Reportf(call.Pos(), "encoding/json call on a %s in a fixture helper; use the codec (wire.EncodeBatch, Frame.AsBatch, Journal.Append), the one serialisation of socket and journal", name)
		return
	}
}

// namedTypeOf unwraps pointers and slices down to a named type.
func namedTypeOf(t types.Type) *types.Named {
	for t != nil {
		switch u := t.(type) {
		case *types.Named:
			return u
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		default:
			return nil
		}
	}
	return nil
}

// isPkgType reports whether the named type lives in the package whose
// import path ends in /<pkg> — matched on the suffix so fixture
// packages loaded under synthetic paths still qualify.
func isPkgType(named *types.Named, pkg string) bool {
	p := named.Obj().Pkg()
	return p != nil && strings.HasSuffix(p.Path(), "/"+pkg)
}

// isWireType reports whether the named type lives in a wire package.
func isWireType(named *types.Named) bool { return isPkgType(named, "wire") }

// isAccountingType reports whether the named type lives in the job
// accounting package.
func isAccountingType(named *types.Named) bool { return isPkgType(named, "accounting") }

// isPkgCall reports whether the call is pkgpath.Name(...), resolved
// through the type info so import aliases are honoured.
func isPkgCall(pass *analysis.Pass, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath
}
