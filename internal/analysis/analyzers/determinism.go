package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"goear/internal/analysis"
)

// determinism rejects sources of run-to-run variation in the
// simulation, experiment, policy, wire, eardbd, loadgen and grouped
// (the aggregation tier's record store, whose canonical dumps are
// built from map iterations) packages
// — including the simulator's armed replay, which must stay a pure
// function of the seed. The whole
// experiment engine promises byte-identical output across worker
// counts and reruns (CI diffs `benchtables -parallel 1` against
// `-parallel 8`), which only holds if these packages never consult
// the wall clock, never draw from the globally seeded math/rand
// generators, and never emit ordered output straight out of a map
// iteration. The report-aggregation tier is held to the same bar so
// closed-loop tests stay reproducible: its client takes an injected
// Clock and an explicitly seeded jitter generator instead; explicitly
// seeded *rand.Rand generators are allowed everywhere in scope.
var determinism = &analysis.Analyzer{
	Name: "determinism",
	Scope: []string{"internal/sim", "internal/experiments", "internal/policy",
		"internal/wire", "internal/eardbd", "internal/loadgen", "internal/grouped"},
	Run: runDeterminism,
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

func runDeterminism(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterministicCall(pass, n)
			case *ast.RangeStmt:
				checkMapRangeOutput(pass, n, enclosingFuncBody(stack))
			}
			return true
		})
	}
	return nil
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

func checkDeterministicCall(pass *analysis.Pass, call *ast.CallExpr) {
	pkg, fn, ok := calleePkgFunc(pass.Info, call)
	if !ok {
		return
	}
	switch pkg {
	case "time":
		switch fn {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "time.%s reads the wall clock; simulated time must come from the run's own clock", fn)
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn] {
			pass.Reportf(call.Pos(), "%s.%s draws from the shared global generator; use an explicitly seeded *rand.Rand", pkg, fn)
		}
	}
}

// checkMapRangeOutput flags `for ... := range m` over a map whose body
// appends to a slice or writes formatted output: both turn Go's
// randomized map order into visible nondeterminism. Iterations that
// only aggregate (sum, count, rebuild another map) are order-neutral
// and stay legal, as is the collect-then-sort idiom — an appended
// slice that is sorted later in the same function.
func checkMapRangeOutput(pass *analysis.Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	t := pass.TypeOf(rng.X)
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
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				if sortedLater(pass, call, rng, fnBody) {
					return true
				}
				culprit = "appends to a slice"
				return false
			}
		}
		if pkg, fn, ok := calleePkgFunc(pass.Info, call); ok && pkg == "fmt" {
			switch fn {
			case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
				culprit = "writes output via fmt." + fn
				return false
			}
		}
		if sel, ok := stripParens(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Write", "WriteString", "WriteByte", "WriteRune", "Printf", "Print", "Println":
				if _, isMethod := pass.Info.Selections[sel]; isMethod {
					culprit = "writes output via " + sel.Sel.Name
					return false
				}
			}
		}
		return true
	})
	if culprit != "" {
		pass.Reportf(rng.Pos(), "map iteration order is randomized but this loop %s; collect the keys, sort them, and range over the slice", culprit)
	}
}

// sortedLater reports whether the slice receiving the append is passed
// to a sorting function after the range loop in the same function —
// the collect-then-sort idiom, which is deterministic.
func sortedLater(pass *analysis.Pass, appendCall *ast.CallExpr, rng *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	if fnBody == nil || len(appendCall.Args) == 0 {
		return false
	}
	target, ok := stripParens(appendCall.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[target]
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
		pkg, fn, ok := calleePkgFunc(pass.Info, call)
		if !ok {
			return true
		}
		isSort := (pkg == "sort" || pkg == "slices") &&
			(strings.HasPrefix(fn, "Sort") || fn == "Strings" || fn == "Ints" || fn == "Float64s" || fn == "Stable")
		if !isSort {
			return true
		}
		if id, ok := stripParens(call.Args[0]).(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
