package analysis

import (
	"go/ast"
	"go/types"
)

// errcheck flags calls whose error result is silently dropped: in an
// expression statement, a defer or a go statement. The simulator
// layers its failure reporting through returned errors (MSR
// writability, config validation, conservation checks); a discarded
// error here means a run continues on state it believes is impossible.
//
// A deliberate discard assigns the error to blank (`_ = f()`). Writes
// through fmt to a strings.Builder or bytes.Buffer are exempt — those
// writers cannot fail — as is best-effort console logging via
// fmt.Print/Printf/Println.
func errcheck(p *pkg) []string {
	ps := &pass{pkg: p, check: "errcheck"}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
			case *ast.GoStmt:
				call = n.Call
			}
			if call != nil && returnsError(ps, call) && !exemptCall(ps, call) {
				ps.reportf(call.Pos(), "result of %s includes an error that is dropped; handle it or assign to _ explicitly", calleeName(call))
			}
			return true
		})
	}
	return ps.found
}

// returnsError reports whether the call's results include an error.
func returnsError(ps *pass, call *ast.CallExpr) bool {
	t := ps.info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorType)
}

// exemptCall recognizes the call shapes whose errors are structurally
// dead: fmt printing to stdout, and fmt or method writes into
// in-memory builders/buffers.
func exemptCall(ps *pass, call *ast.CallExpr) bool {
	if pkg, fn, ok := calleePkgFunc(ps.info, call); ok && pkg == "fmt" {
		switch fn {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			return len(call.Args) > 0 && isInfallibleWriter(ps.info.TypeOf(call.Args[0]))
		}
	}
	// Method calls on *strings.Builder / *bytes.Buffer (WriteString,
	// WriteByte, ...) document that they always return a nil error.
	if sel, ok := stripParens(call.Fun).(*ast.SelectorExpr); ok {
		if s, isMethod := ps.info.Selections[sel]; isMethod {
			return isInfallibleWriter(s.Recv())
		}
	}
	return false
}

// isInfallibleWriter reports whether t is (a pointer to)
// strings.Builder or bytes.Buffer.
func isInfallibleWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (pkg == "strings" && name == "Builder") || (pkg == "bytes" && name == "Buffer")
}

// calleeName renders the called expression for the message.
func calleeName(call *ast.CallExpr) string {
	switch fun := stripParens(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
