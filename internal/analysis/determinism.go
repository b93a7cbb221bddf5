package analysis

import (
	"go/ast"
	"go/types"
)

// determinism rejects sources of run-to-run variation: reading the
// wall clock, drawing from the globally seeded math/rand generators
// (explicitly seeded *rand.Rand generators are the allowed path), and
// emitting ordered output straight out of a map iteration. Code that
// needs time takes an injected clock, as the eardbd client does.
func determinism(p *pkg) []string {
	ps := &pass{pkg: p, check: "determinism"}
	for _, f := range p.files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(ps, n)
			case *ast.RangeStmt:
				checkMapRangeOutput(ps, n, enclosingFuncBody(stack))
			}
			return true
		})
	}
	return ps.found
}

// seededConstructors are the math/rand package functions that build
// explicitly seeded generators — the allowed path to randomness.
var seededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
	"NewZipf":    true, // takes a *Rand, draws nothing itself
}

// enclosingFuncBody returns the body of the innermost function on the
// traversal stack, or nil at package level.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func checkDeterministicCall(ps *pass, call *ast.CallExpr) {
	pkg, fn, ok := calleePkgFunc(ps.info, call)
	if !ok {
		return
	}
	switch pkg {
	case "time":
		switch fn {
		case "Now", "Since", "Until":
			ps.reportf(call.Pos(), "time.%s reads the wall clock; simulated time must come from the run's own clock", fn)
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn] {
			ps.reportf(call.Pos(), "%s.%s draws from the shared global generator; use an explicitly seeded *rand.Rand", pkg, fn)
		}
	}
}

// checkMapRangeOutput flags `for ... := range m` over a map whose body
// appends to a slice or writes formatted output: both turn Go's
// randomized map order into visible nondeterminism. Iterations that
// only aggregate (sum, count, rebuild another map) are order-neutral
// and stay legal, as is the collect-then-sort idiom — an appended
// slice that is sorted later in the same function.
func checkMapRangeOutput(ps *pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	t := ps.info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	var culprit string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if culprit != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := stripParens(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := ps.info.Uses[id].(*types.Builtin); isBuiltin {
				if sortedLater(ps, call, rng, fnBody) {
					return true
				}
				culprit = "appends to a slice"
				return false
			}
		}
		if pkg, fn, ok := calleePkgFunc(ps.info, call); ok && pkg == "fmt" {
			switch fn {
			case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
				culprit = "writes output via fmt." + fn
				return false
			}
		}
		if sel, ok := stripParens(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Write", "WriteString", "WriteByte", "WriteRune", "Printf", "Print", "Println":
				if _, isMethod := ps.info.Selections[sel]; isMethod {
					culprit = "writes output via " + sel.Sel.Name
					return false
				}
			}
		}
		return true
	})
	if culprit != "" {
		ps.reportf(rng.Pos(), "map iteration order is randomized but this loop %s; collect the keys, sort them, and range over the slice", culprit)
	}
}

// sorters are the calls that sort the slice they are given first.
var sorters = map[string]bool{
	"sort.Sort": true, "sort.Stable": true, "sort.Slice": true, "sort.SliceStable": true,
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortedLater reports whether the slice receiving the append is passed
// to a sorting function after the range loop in the same function —
// the collect-then-sort idiom, which is deterministic.
func sortedLater(ps *pass, appendCall *ast.CallExpr, rng *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	if fnBody == nil || len(appendCall.Args) == 0 {
		return false
	}
	target, ok := stripParens(appendCall.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	obj := ps.info.Uses[target]
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		if pkg, fn, ok := calleePkgFunc(ps.info, call); !ok || !sorters[pkg+"."+fn] {
			return true
		}
		if id, ok := stripParens(call.Args[0]).(*ast.Ident); ok && ps.info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
