package analyzers

import (
	"go/ast"
	"go/types"

	"goear/internal/analysis"
)

// concurrency enforces the repo's two concurrency ground rules:
//
//   - values containing sync primitives (Mutex, RWMutex, WaitGroup,
//     Once, Cond, Pool, Map) are never copied — not as by-value
//     parameters or receivers, not by range clauses, not by plain
//     assignment of an existing value;
//   - simulation, experiment and policy code never launches raw
//     goroutines. All fan-out goes through internal/par, whose
//     bounded, slot-addressed primitives are what makes parallel runs
//     byte-identical to sequential ones.
var concurrency = &analysis.Analyzer{
	Name: "concurrency",
	Doc: "flag by-value copies of sync primitives anywhere in internal/, and raw go " +
		"statements in internal/sim, internal/experiments and internal/policy " +
		"(fan-out belongs in internal/par)",
	Scope: []string{"internal"},
	Run:   runConcurrency,
}

// goFreeScopes are the packages where raw goroutines are banned.
var goFreeScopes = []string{"internal/sim", "internal/experiments", "internal/policy"}

func runConcurrency(pass *analysis.Pass) error {
	banGoroutines := false
	for _, s := range goFreeScopes {
		if analysis.PathMatches(pass.Path, s) {
			banGoroutines = true
			break
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if banGoroutines {
					pass.Reportf(n.Pos(), "raw goroutine in deterministic code; use par.ForEach or par.Map so fan-out stays bounded and order-stable")
				}
			case *ast.FuncDecl:
				checkFuncCopies(pass, n.Recv, n.Type)
			case *ast.FuncLit:
				checkFuncCopies(pass, nil, n.Type)
			case *ast.RangeStmt:
				checkRangeCopy(pass, n)
			case *ast.AssignStmt:
				for _, rhs := range n.Rhs {
					checkValueCopy(pass, rhs)
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					checkValueCopy(pass, v)
				}
			}
			return true
		})
	}
	return nil
}

// checkFuncCopies flags by-value receivers and parameters whose type
// contains a sync primitive.
func checkFuncCopies(pass *analysis.Pass, recv *ast.FieldList, ft *ast.FuncType) {
	report := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := pass.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if lock := containedLock(t); lock != "" {
				pass.Reportf(field.Pos(), "%s passes a value containing sync.%s by value; use a pointer", what, lock)
			}
		}
	}
	report(recv, "receiver")
	report(ft.Params, "parameter")
}

// checkRangeCopy flags `for _, v := range s` when the element value
// copied into v contains a sync primitive.
func checkRangeCopy(pass *analysis.Pass, rng *ast.RangeStmt) {
	if rng.Value == nil {
		return
	}
	t := pass.TypeOf(rng.Value)
	if t == nil {
		return
	}
	if lock := containedLock(t); lock != "" {
		pass.Reportf(rng.Value.Pos(), "range clause copies a value containing sync.%s each iteration; range over indices or pointers", lock)
	}
}

// checkValueCopy flags assignments that copy an existing value
// containing a sync primitive. Fresh values (composite literals,
// function call results) are constructions, not copies, and pass.
func checkValueCopy(pass *analysis.Pass, rhs ast.Expr) {
	switch stripParens(rhs).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	t := pass.TypeOf(rhs)
	if t == nil {
		return
	}
	if lock := containedLock(t); lock != "" {
		pass.Reportf(rhs.Pos(), "assignment copies a value containing sync.%s; share it through a pointer", lock)
	}
}

// syncLockTypes are the sync types that must never be copied after
// first use.
var syncLockTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Once": true, "Cond": true, "Pool": true, "Map": true,
}

// containedLock reports the name of a sync primitive reachable from t
// by value (through named types, structs and arrays, but not through
// pointers, slices, maps or channels), or "".
func containedLock(t types.Type) string {
	return lockIn(t, map[types.Type]bool{})
}

func lockIn(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && syncLockTypes[obj.Name()] {
			return obj.Name()
		}
		return lockIn(named.Underlying(), seen)
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if l := lockIn(u.Field(i).Type(), seen); l != "" {
				return l
			}
		}
	case *types.Array:
		return lockIn(u.Elem(), seen)
	}
	return ""
}
