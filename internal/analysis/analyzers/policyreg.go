package analyzers

import (
	"go/ast"
	"go/constant"
	"go/types"

	"goear/internal/analysis"
)

// policyreg checks the policy plugin registry for completeness and
// config round-tripping. The registry mirrors EAR's dlopen plugin
// table: every concrete Policy implementation must be constructed by
// exactly one Register factory, registered under a declared name
// constant (never a bare literal), and that name must survive a trip
// through earconf parsing — the AuthorizedPolicies list is split on
// commas and trimmed, so a name with commas, spaces or uppercase would
// silently never match what a job requests.
var policyreg = &analysis.Analyzer{
	Name: "policyreg",
	Doc: "require every Policy implementation to be registered exactly once under a " +
		"declared name constant whose value round-trips config parsing " +
		"(lowercase [a-z0-9_]+, unique across the registry)",
	Scope: []string{"internal/policy"},
	Run:   runPolicyReg,
}

func runPolicyReg(pass *analysis.Pass) error {
	scope := pass.Pkg.Scope()
	ifaceObj, _ := scope.Lookup("Policy").(*types.TypeName)
	regObj, _ := scope.Lookup("Register").(*types.Func)
	if ifaceObj == nil || regObj == nil {
		return nil // not a registry-shaped package
	}
	iface, ok := ifaceObj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}

	// Pass 1: collect Register calls — which constants name them and
	// which concrete types their factories return.
	regCount := map[types.Object][]*ast.CallExpr{} // name constant -> calls
	valueOwner := map[string]types.Object{}        // name value -> first constant
	registered := map[*types.TypeName]bool{}       // concrete types a factory returns
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			id, ok := stripParens(call.Fun).(*ast.Ident)
			if !ok || pass.Info.Uses[id] != regObj {
				return true
			}
			checkRegisterName(pass, call, regCount, valueOwner)
			for _, tn := range factoryReturnTypes(pass, call.Args[1]) {
				registered[tn] = true
			}
			return true
		})
	}

	// Exactly-once: a constant registered under two calls is a
	// duplicate registration (it would panic at init in production,
	// but the analyzer catches it before any test runs).
	for obj, calls := range regCount {
		for _, call := range calls[1:] {
			pass.Reportf(call.Pos(), "policy name %s is registered %d times, want exactly once", obj.Name(), len(calls))
		}
	}

	// Completeness: every package-level concrete type implementing
	// Policy must be returned by some factory. Decorators — types that
	// embed the Policy interface to wrap another policy — are exempt.
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn == ifaceObj || tn.IsAlias() {
			continue
		}
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		if !types.Implements(tn.Type(), iface) && !types.Implements(types.NewPointer(tn.Type()), iface) {
			continue
		}
		if embedsInterface(tn.Type(), ifaceObj) {
			continue
		}
		if !registered[tn] {
			pass.Reportf(tn.Pos(), "%s implements Policy but no Register factory returns it", tn.Name())
		}
	}
	return nil
}

// checkRegisterName validates the name argument of one Register call:
// it must be a declared package-level string constant, its value must
// round-trip config parsing, and no two constants may collide.
func checkRegisterName(pass *analysis.Pass, call *ast.CallExpr, regCount map[types.Object][]*ast.CallExpr, valueOwner map[string]types.Object) {
	arg := stripParens(call.Args[0])
	id, ok := arg.(*ast.Ident)
	if !ok {
		pass.Reportf(arg.Pos(), "Register must be called with a declared name constant, not an expression")
		return
	}
	obj, ok := pass.Info.Uses[id].(*types.Const)
	if !ok {
		pass.Reportf(arg.Pos(), "Register must be called with a declared name constant, not %s", id.Name)
		return
	}
	regCount[obj] = append(regCount[obj], call)
	if len(regCount[obj]) > 1 {
		return // duplicate reported by the caller; validate once
	}
	if obj.Val().Kind() != constant.String {
		return
	}
	val := constant.StringVal(obj.Val())
	if owner, dup := valueOwner[val]; dup {
		pass.Reportf(arg.Pos(), "policy name constants %s and %s share the value %q", owner.Name(), obj.Name(), val)
	} else {
		valueOwner[val] = obj
	}
	if !roundTrips(val) {
		pass.Reportf(arg.Pos(), "policy name %q does not round-trip config parsing (want ^[a-z0-9_]+$ so AuthorizedPolicies lists survive split and trim)", val)
	}
}

// roundTrips reports whether a registry name survives earconf parsing
// unchanged: non-empty, lowercase word characters only.
func roundTrips(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
		default:
			return false
		}
	}
	return true
}

// factoryReturnTypes resolves the concrete package-level named types a
// Register factory returns: function literals are scanned directly,
// identifiers of package functions through their declarations.
func factoryReturnTypes(pass *analysis.Pass, factory ast.Expr) []*types.TypeName {
	var body *ast.BlockStmt
	switch fn := stripParens(factory).(type) {
	case *ast.FuncLit:
		body = fn.Body
	case *ast.Ident:
		obj, ok := pass.Info.Uses[fn].(*types.Func)
		if !ok {
			return nil
		}
		body = funcDeclBody(pass, obj)
	}
	if body == nil {
		return nil
	}
	var out []*types.TypeName
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // nested closures return something else
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		t := pass.TypeOf(ret.Results[0])
		if t == nil {
			return true
		}
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() == pass.Pkg {
			out = append(out, named.Obj())
		}
		return true
	})
	return out
}

// funcDeclBody finds the body of a package-level function.
func funcDeclBody(pass *analysis.Pass, obj *types.Func) *ast.BlockStmt {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && pass.Info.Defs[fd.Name] == obj {
				return fd.Body
			}
		}
	}
	return nil
}

// embedsInterface reports whether the struct type embeds the given
// interface — the decorator pattern (e.g. an instrumented wrapper),
// which implements Policy by construction and is never registered.
func embedsInterface(t types.Type, iface *types.TypeName) bool {
	st := structUnder(t)
	if st == nil {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() && types.Identical(f.Type(), iface.Type()) {
			return true
		}
	}
	return false
}

// structUnder unwraps pointers and named types down to a struct.
func structUnder(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}
