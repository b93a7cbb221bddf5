package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"slices"
	"strings"
)

// A rule is one row of the module's rule table. It restricts the uses
// of its keys, in the packages it reads, to the sites it allows: a
// module-relative file or directory, or the FullName of the declaration
// a use sits in; each allowed site must hold a use. A key is a func's
// FullName, another object's "pkgpath.Name" (so an alias import, a
// method value and a dot-import are the same use), "package pkgpath"
// (any object of that package used from another), or a form below. Two
// rows hold a figure instead: count, the exact number of uses, and
// asked, that each constant whose key starts with uses[0] is used
// outside allow.
type rule struct {
	name  string
	uses  []string
	reads []string // module-relative package prefixes; "." is the root package
	allow []string
	count int
	asked bool
}

// The forms a key can name.
const (
	goStmt         = "go statement"
	initFunc       = "init function"                      // in a _test.go file too
	exportedAssert = "type assertion to an exported type" // or a pointer to one, or a type-switch case naming one
)

var outsideBench = []string{".", "cmd", "examples", "internal"}
var everywhere = append([]string{"bench"}, outsideBench...)

// rules is the table TestWholeTreeClean holds the module to; DESIGN §6
// gives each row's reason.
var rules = []rule{
	{name: "One dial seam", uses: []string{"net.Pipe"}, reads: outsideBench},
	{name: "One dial seam", uses: []string{"goear/internal/eardbd.newPipe"}, reads: outsideBench, allow: []string{"(*goear/internal/eardbd.Front).Dial"}},
	{name: "Pool count held", uses: []string{"sync.Pool"}, reads: outsideBench, allow: []string{"goear/internal/eardbd.batchPool", "goear/internal/sim.nodePool", "goear/internal/wire.headPool"}},
	{name: "One framing path", uses: []string{"goear/internal/wire.ReadFrame", "goear/internal/wire.WriteFrame"}, reads: outsideBench, allow: []string{"goear/internal/eardbd.Query"}},
	{name: "Every query kind has an asker", uses: []string{"goear/internal/wire.Query"}, asked: true, reads: everywhere, allow: []string{"internal/wire", "internal/eardbd/service.go"}},
	{name: "One run path", uses: []string{"goear/internal/sim.RunAveraged", "goear/internal/sim.RunCoordinated", "(goear/internal/workload.Spec).Calibrate"}, reads: outsideBench, allow: []string{"internal/experiments"}},
	{name: "One run path", uses: []string{"goear/internal/model.TrainForCPU"}, reads: outsideBench, allow: []string{"internal/experiments", "cmd/earctl/learn.go"}},
	{name: "One site-config loader", uses: []string{"goear/internal/earconf.Parse"}, reads: outsideBench, allow: []string{"internal/earconf"}},
	{name: "One spec-file loader", uses: []string{"goear/internal/workload.LoadSpec"}, reads: outsideBench, allow: []string{"internal/workload"}},
	{name: "The load generator seeds no math/rand source", uses: []string{"math/rand.NewSource"}, reads: []string{"internal/loadgen", "internal/accounting"}},
	{name: "One evaluation site in the simulator", uses: []string{"goear/internal/perf.Evaluate", "goear/internal/perf.EvaluateAll"}, reads: []string{"internal/sim"}, allow: []string{"(*goear/internal/sim.node).evalAt"}},
	{name: "The simulator leaves RAPL to power.Rapl", uses: []string{"goear/internal/msr.MSRPkgEnergyStatus", "goear/internal/msr.MSRDramEnergyStatus", "goear/internal/msr.MSRRaplPowerUnit"}, reads: []string{"internal/sim"}},
	{name: "One comparison path in the campaign", uses: []string{"goear/internal/sim.DeltaOf"}, reads: []string{"internal/experiments"}, allow: []string{"(goear/internal/experiments.fan).compare", "(*goear/internal/experiments.Context).fig1"}},
	{name: "One fan-out in a campaign", uses: []string{"goear/internal/par.ForEach"}, reads: []string{"internal/experiments"}, allow: []string{"(goear/internal/experiments.fan).rows"}},
	{name: "The campaign's cells are built a row at a time", uses: []string{"goear/internal/report.F", "goear/internal/report.GHz", "goear/internal/report.Pct", "strconv.FormatFloat", "fmt.Sprint", "fmt.Sprintf"}, reads: []string{"internal/experiments"}},
	{name: "A policy is driven through its interface", uses: []string{exportedAssert, "goear/internal/policy.Predictor", "goear/internal/earl.Predictor", "goear/internal/sim.Predictor"}, reads: []string{"internal/earl", "internal/sim", "internal/policy"}},
	{name: "No raw goroutines in deterministic code", uses: []string{goStmt}, reads: []string{"internal/sim", "internal/experiments", "internal/policy", "internal/model"}},
	{name: "No package init", uses: []string{initFunc}, reads: everywhere},
	{name: "Flag count held", uses: flagDefs(), reads: []string{"cmd"}, count: 88},
	{name: "One atomic writer", uses: []string{"os.Rename"}, reads: everywhere, allow: []string{"goear/internal/eard.WriteFile"}},
	{name: "Allocation meters stay in tests", uses: []string{"package goear/internal/alloctest"}, reads: everywhere},
}

// flagDefs are the flag functions and FlagSet methods that define a flag.
func flagDefs() (defs []string) {
	for _, m := range strings.Fields("Bool BoolFunc BoolVar Duration DurationVar Float64 Float64Var Func Int Int64 Int64Var IntVar String StringVar TextVar Uint Uint64 Uint64Var UintVar Var") {
		defs = append(defs, "flag."+m, "(*flag.FlagSet)."+m)
	}
	return defs
}

// holder folds the rows rs over packages one at a time.
type holder struct {
	l     *Loader
	rs    []rule
	found []string
	n     []int           // uses, per count row
	hit   map[[2]int]bool // {row, index in allow} of each allowed site that holds a use
	asks  map[string]int  // uses outside allow, per asked constant
	defs  []*types.Const  // package constants defined, in scan order
}

// breaches holds pkgs to the rows rs and renders each breach as
// "file:line:col: message (rule)"; a count or a site has no position.
func (l *Loader) breaches(rs []rule, pkgs []*pkg) []string {
	h := &holder{l: l, rs: rs, n: make([]int, len(rs)), hit: map[[2]int]bool{}, asks: map[string]int{}}
	for _, p := range pkgs {
		h.scan(p)
	}
	for i, r := range rs {
		for _, c := range h.defs {
			if key := objKey(c); r.asked && strings.HasPrefix(key, r.uses[0]) && h.asks[key] == 0 {
				h.report(i, c.Pos(), "%s has no use outside %s", key, strings.Join(r.allow, ", "))
			}
		}
		switch {
		case r.count > 0 && h.n[i] != r.count:
			h.report(i, token.NoPos, "%d uses under %s, want %d", h.n[i], strings.Join(r.reads, ", "), r.count)
		case r.count == 0 && !r.asked:
			for j, a := range r.allow {
				if !h.hit[[2]int{i, j}] {
					h.report(i, token.NoPos, "allowed site %s holds no use", a)
				}
			}
		}
	}
	return h.found
}

func (h *holder) report(row int, pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format+" (%s)", append(args, h.rs[row].name)...)
	if pos.IsValid() {
		msg = fmt.Sprintf("%s: %s", h.l.fset.Position(pos), msg)
	}
	h.found = append(h.found, msg)
}

// scan walks one package's declarations for the rows that read it.
func (h *holder) scan(p *pkg) {
	pkgPath := p.types.Path()
	rel := path.Join(".", strings.TrimPrefix(pkgPath, h.l.module)) // "." for the root package
	var on []int
	for i, r := range h.rs {
		if slices.ContainsFunc(r.reads, func(pre string) bool { return rel == pre || strings.HasPrefix(rel, pre+"/") }) {
			on = append(on, i)
		}
	}
	for i, f := range slices.Concat(p.files, p.tests) {
		file := path.Join(rel, filepath.Base(h.l.fset.File(f.Pos()).Name()))
		for _, d := range f.Decls {
			if d, ok := d.(*ast.FuncDecl); ok && d.Recv == nil && d.Name.Name == "init" {
				h.use(on, initFunc, d.Pos(), file, pkgPath+".init")
			}
			if i >= len(p.files) {
				continue // a test file is read for its init functions alone
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				h.walk(p, on, d, file, p.info.Defs[d.Name].(*types.Func).FullName())
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						var names []string
						for _, n := range s.Names {
							names = append(names, n.Name)
						}
						h.walk(p, on, s, file, pkgPath+"."+strings.Join(names, ","))
					case *ast.TypeSpec:
						h.walk(p, on, s, file, pkgPath+"."+s.Name.Name)
					}
				}
			}
		}
	}
}

// walk checks every use and form inside one declaration at site.
func (h *holder) walk(p *pkg, on []int, decl ast.Node, file, site string) {
	assert := func(e ast.Expr) {
		tv := p.info.Types[e]
		t := tv.Type
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if n, ok := types.Unalias(t).(*types.Named); ok && tv.IsType() && n.Obj().Exported() {
			h.use(on, exportedAssert, e.Pos(), file, site)
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := p.info.Uses[n]; obj != nil {
				h.use(on, objKey(obj), n.Pos(), file, site)
				if o := obj.Pkg(); o != nil && o != p.types {
					h.use(on, "package "+o.Path(), n.Pos(), file, site)
				}
			} else if c, ok := p.info.Defs[n].(*types.Const); ok {
				h.defs = append(h.defs, c)
			}
		case *ast.GoStmt:
			h.use(on, goStmt, n.Pos(), file, site)
		case *ast.TypeAssertExpr:
			assert(n.Type) // nil in a type switch's guard; its cases follow
		case *ast.CaseClause:
			for _, e := range n.List {
				assert(e) // a value unless the switch is a type switch
			}
		}
		return true
	})
}

// use records one use of key at pos.
func (h *holder) use(on []int, key string, pos token.Pos, file, site string) {
	for _, i := range on {
		r := &h.rs[i]
		switch {
		case r.asked:
			if strings.HasPrefix(key, r.uses[0]) && !h.allowed(i, file, site) {
				h.asks[key]++
			}
		case !slices.Contains(r.uses, key):
		case r.count > 0:
			h.n[i]++
		case !h.allowed(i, file, site):
			h.report(i, pos, "%s used in %s", key, site)
		}
	}
}

// allowed reports whether row allows a use in file at site, and marks
// the site that allows it.
func (h *holder) allowed(row int, file, site string) bool {
	for j, a := range h.rs[row].allow {
		if a == site || a == file || strings.HasPrefix(file, a+"/") {
			h.hit[[2]int{row, j}] = true
			return true
		}
	}
	return false
}

// objKey is a func's FullName or a package-level object's
// "pkgpath.Name"; anything else has no key.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().FullName()
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
