package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"reflect"

	"goear/internal/analysis"
)

// conftag cross-checks the three places a cluster-config key lives:
// the string matched in the parser's set switch, the struct field the
// case assigns, and the field's `conf:"..."` tag. EAR's ear.conf keys
// drift easily — a renamed key with a stale tag still parses but
// documents the wrong name, and a tagged field with no case is a knob
// that silently never takes effect.
var conftag = &analysis.Analyzer{
	Name: "conftag",
	Doc: "require config keys, the struct fields their parser cases assign, and the " +
		"fields' conf struct tags to agree: no dead keys, no stale or missing tags",
	Scope: []string{"internal/earconf"},
	Run:   runConfTag,
}

func runConfTag(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "set" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			checkSetMethod(pass, fd)
		}
	}
	return nil
}

// checkSetMethod audits one set(key, value) parser method against the
// receiver struct's fields and tags.
func checkSetMethod(pass *analysis.Pass, fd *ast.FuncDecl) {
	recv := receiverStruct(pass, fd)
	if recv == nil || len(fd.Type.Params.List) == 0 || len(fd.Type.Params.List[0].Names) == 0 {
		return
	}
	keyParam := pass.Info.Defs[fd.Type.Params.List[0].Names[0]]
	sw := findSwitchOn(pass, fd.Body, keyParam)
	if sw == nil {
		return
	}

	handled := map[string]bool{} // config key -> has a case
	assigned := map[*confField]bool{}
	seenKey := map[string]ast.Expr{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		field := firstAssignedField(pass, cc.Body, recv)
		for _, expr := range cc.List {
			key, ok := stringLitValue(pass, expr)
			if !ok {
				continue
			}
			if prev, dup := seenKey[key]; dup {
				pass.Reportf(expr.Pos(), "config key %q has duplicate cases (first at %s)", key, pass.Fset.Position(prev.Pos()))
				continue
			}
			seenKey[key] = expr
			handled[key] = true
			if field == nil {
				pass.Reportf(expr.Pos(), "config key %q is dead: its case assigns no receiver field", key)
				continue
			}
			assigned[field] = true
			checkFieldTag(pass, expr, key, field)
		}
	}

	// Dead tags: fields carrying a conf tag no case ever assigns. A
	// field some case does assign under a different key was already
	// reported as a stale tag above — one problem, one diagnostic.
	for _, fld := range recv.fields {
		tag := confTag(fld.tag)
		if tag == "" || assigned[fld] {
			continue
		}
		if !handled[tag] {
			pass.Reportf(fld.pos, "conf tag %q on field %s is dead: no parser case handles that key", tag, fld.name)
		}
	}
}

// checkFieldTag verifies the assigned field's conf tag names exactly
// the key the case matches.
func checkFieldTag(pass *analysis.Pass, at ast.Expr, key string, fld *confField) {
	tag := confTag(fld.tag)
	switch {
	case fld.astField == nil:
		// Field declared outside the loaded files.
		if tag != key {
			pass.Reportf(at.Pos(), "config key %q assigns field %s whose conf tag is %q", key, fld.name, tag)
		}
	case fld.tag == "":
		pass.Reportf(at.Pos(), "config key %q assigns field %s, which has no conf tag", key, fld.name)
	case tag != key:
		pass.Reportf(at.Pos(), "config key %q assigns field %s, whose conf tag says %q", key, fld.name, tag)
	}
}

// confField is one struct field of the parser's receiver with its
// declaration site (when the struct is declared in the loaded files).
type confField struct {
	name     string
	tag      string
	pos      token.Pos
	astField *ast.Field
}

type recvStruct struct {
	obj    *types.TypeName
	st     *types.Struct
	fields []*confField
	byName map[string]*confField
}

// receiverStruct resolves the method receiver to its struct type and
// collects the fields, pairing each with its AST declaration.
func receiverStruct(pass *analysis.Pass, fd *ast.FuncDecl) *recvStruct {
	if len(fd.Recv.List) == 0 {
		return nil
	}
	t := pass.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	rs := &recvStruct{obj: named.Obj(), st: st, byName: map[string]*confField{}}
	astFields := structDeclFields(pass, named.Obj())
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		cf := &confField{name: f.Name(), tag: st.Tag(i), pos: f.Pos(), astField: astFields[f.Name()]}
		rs.fields = append(rs.fields, cf)
		rs.byName[f.Name()] = cf
	}
	return rs
}

// structDeclFields maps field name to *ast.Field for the named struct's
// declaration in the loaded files, or an empty map.
func structDeclFields(pass *analysis.Pass, obj *types.TypeName) map[string]*ast.Field {
	out := map[string]*ast.Field{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || pass.Info.Defs[ts.Name] != obj {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					out[name.Name] = fld
				}
			}
			return false
		})
	}
	return out
}

// findSwitchOn locates the switch statement whose tag is the given
// parameter (possibly wrapped in a call like strings.ToLower(key)).
func findSwitchOn(pass *analysis.Pass, body *ast.BlockStmt, keyParam types.Object) *ast.SwitchStmt {
	var found *ast.SwitchStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		if usesObject(pass, sw.Tag, keyParam) {
			found = sw
			return false
		}
		return true
	})
	return found
}

// usesObject reports whether the expression mentions the object.
func usesObject(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

// firstAssignedField finds the first receiver field a case body
// assigns (directly or via a selection on the receiver), resolved
// through types.Selections so embedded shapes work too.
func firstAssignedField(pass *analysis.Pass, body []ast.Stmt, recv *recvStruct) *confField {
	var found *confField
	for _, stmt := range body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				sel, ok := stripParens(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				selInfo, ok := pass.Info.Selections[sel]
				if !ok {
					continue
				}
				fieldVar, ok := selInfo.Obj().(*types.Var)
				if !ok || !fieldVar.IsField() {
					continue
				}
				if cf, ok := recv.byName[fieldVar.Name()]; ok && cf.pos == fieldVar.Pos() {
					found = cf
					return false
				}
			}
			return true
		})
		if found != nil {
			break
		}
	}
	return found
}

// stringLitValue extracts the constant string value of a case
// expression (literal or named constant).
func stringLitValue(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// confTag extracts the conf key from a raw struct tag.
func confTag(raw string) string {
	return reflect.StructTag(raw).Get("conf")
}
