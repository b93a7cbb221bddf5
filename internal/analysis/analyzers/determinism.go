package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"goear/internal/analysis"
)

// Determinism rejects sources of run-to-run variation in the
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
// Clock and an explicitly seeded jitter generator instead.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads (time.Now/Since/Until), global math/rand draws, " +
		"and output or slice building in bare map-iteration order inside " +
		"internal/sim, internal/experiments, internal/policy, " +
		"internal/wire, internal/eardbd, internal/loadgen and internal/grouped; " +
		"explicitly seeded *rand.Rand generators remain allowed",
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
				checkDeterministicCall(pass, n, stack)
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

func checkDeterministicCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	pkg, fn, ok := calleePkgFunc(pass.Info, call)
	if !ok {
		return
	}
	switch pkg {
	case "time":
		switch fn {
		case "Now", "Since", "Until":
			var fix *analysis.SuggestedFix
			if fn == "Now" {
				fix = clockFix(pass, call, stack)
			}
			pass.ReportFix(call.Pos(), fix, "time.%s reads the wall clock; simulated time must come from the run's own clock", fn)
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn] {
			pass.Reportf(call.Pos(), "%s.%s draws from the shared global generator; use an explicitly seeded *rand.Rand", pkg, fn)
		}
	}
}

// clockFix rewrites a time.Now() call to read the injected clock when
// the enclosing method's receiver carries one — a field (or a field of
// a config-struct field, the client's c.cfg.Clock shape) whose type
// has a parameterless, single-result Now method. Returns nil when no
// clock is in scope; the finding is then report-only.
func clockFix(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) *analysis.SuggestedFix {
	path := clockFieldPath(pass, stack)
	if path == "" {
		return nil
	}
	repl := path + ".Now()"
	return &analysis.SuggestedFix{
		Message: "replace time.Now() with the injected clock read " + repl,
		Edits:   []analysis.TextEdit{pass.Edit(call.Pos(), call.End(), repl)},
	}
}

// clockFieldPath finds the selector path to a clock reachable from the
// innermost enclosing method's receiver, or "".
func clockFieldPath(pass *analysis.Pass, stack []ast.Node) string {
	var fd *ast.FuncDecl
	for i := len(stack) - 1; i >= 0 && fd == nil; i-- {
		if d, ok := stack[i].(*ast.FuncDecl); ok {
			fd = d
		}
	}
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	recvIdent := fd.Recv.List[0].Names[0]
	if recvIdent.Name == "_" {
		return ""
	}
	obj := pass.Info.Defs[recvIdent]
	if obj == nil {
		return ""
	}
	st := structUnder(obj.Type())
	if st == nil {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); hasClockNow(f.Type()) {
			return recvIdent.Name + "." + f.Name()
		}
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		inner := structUnder(f.Type())
		if inner == nil {
			continue
		}
		for j := 0; j < inner.NumFields(); j++ {
			if g := inner.Field(j); hasClockNow(g.Type()) {
				return recvIdent.Name + "." + f.Name() + "." + g.Name()
			}
		}
	}
	return ""
}

// structUnder unwraps pointers and named types down to a struct.
func structUnder(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// hasClockNow reports whether the type has a Now() method taking
// nothing and returning one value — the injected-clock shape.
func hasClockNow(t types.Type) bool {
	for _, tt := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(tt, true, nil, "Now")
		if fn, ok := obj.(*types.Func); ok {
			sig, ok := fn.Type().(*types.Signature)
			if ok && sig.Params().Len() == 0 && sig.Results().Len() == 1 {
				return true
			}
		}
	}
	return false
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
	var appendCall *ast.CallExpr
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
				appendCall = call
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
		var fix *analysis.SuggestedFix
		if appendCall != nil {
			fix = sortAfterLoopFix(pass, rng, appendCall)
		}
		pass.ReportFix(rng.Pos(), fix, "map iteration order is randomized but this loop %s; collect the keys, sort them, and range over the slice", culprit)
	}
}

// sortAfterLoopFix converts a collect-in-map-order loop into the
// collect-then-sort idiom: insert the matching sort call directly
// after the loop (and the "sort" import when the file lacks it). Only
// slices of string, int or float64 appended to a plain local variable
// get a fix — everything else needs a human.
func sortAfterLoopFix(pass *analysis.Pass, rng *ast.RangeStmt, appendCall *ast.CallExpr) *analysis.SuggestedFix {
	if len(appendCall.Args) == 0 {
		return nil
	}
	target, ok := stripParens(appendCall.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	t := pass.TypeOf(target)
	if t == nil {
		return nil
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return nil
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	if !ok || sl.Elem() != sl.Elem().Underlying() {
		// Named element types would change sort semantics visible to
		// the reader; leave those to a human.
		return nil
	}
	var sortFn string
	switch basic.Kind() {
	case types.String:
		sortFn = "sort.Strings"
	case types.Int:
		sortFn = "sort.Ints"
	case types.Float64:
		sortFn = "sort.Float64s"
	default:
		return nil
	}
	stmt := sortFn + "(" + target.Name + ")"
	edits := []analysis.TextEdit{pass.Insert(rng.End(), "\n"+stmt)}
	if imp, needed := importEdit(pass, rng.Pos(), "sort"); needed {
		edits = append(edits, imp)
	}
	return &analysis.SuggestedFix{
		Message: "insert " + stmt + " after the loop (collect-then-sort)",
		Edits:   edits,
	}
}

// importEdit returns an edit adding the import to the file containing
// pos, or needed=false when it is already imported. The inserted path
// lands wherever is syntactically valid; the fix applier's gofmt pass
// canonicalises the order.
func importEdit(pass *analysis.Pass, pos token.Pos, path string) (analysis.TextEdit, bool) {
	var file *ast.File
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			file = f
			break
		}
	}
	if file == nil {
		return analysis.TextEdit{}, false
	}
	for _, imp := range file.Imports {
		if imp.Path.Value == `"`+path+`"` {
			return analysis.TextEdit{}, false
		}
	}
	for _, d := range file.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		if gd.Lparen.IsValid() {
			return pass.Insert(gd.Lparen+1, "\n\t\""+path+"\""), true
		}
		return pass.Insert(gd.End(), "\nimport \""+path+"\""), true
	}
	return pass.Insert(file.Name.End(), "\n\nimport \""+path+"\""), true
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
