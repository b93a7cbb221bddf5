package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"

	"goear/internal/analysis"
)

// telemetry enforces the observability naming contract: every metric
// name handed to a telemetry Registry registration (Counter, Gauge,
// Histogram and their Vec variants) must be a package-level string
// constant whose value matches ^goear_[a-z0-9_]+$, and each constant
// must be registered at exactly one call site. The registry itself is
// get-or-create (so instance-scoped bundles can share families), which
// is exactly why the single-call-site rule lives in the analyzer: a
// second registration of the same name is silently folded at runtime
// and would hide a copy-paste family collision forever.
//
// Two tracing-era rules ride along: latency families (names ending in
// _latency_seconds) must be HistogramVecs — per-op labels are the
// contract that lets SLO summaries and dashboards select by wire op —
// and span kinds passed to trace span constructors (Root, RootNamed,
// Remote, Child) must be dotted lowercase paths, the shape the /traces
// kind filter matches on dot boundaries.
var telemetry = &analysis.Analyzer{
	Name: "telemetry",
	Doc: "metric names passed to telemetry registry registrations must be package-level " +
		"constants matching ^goear_[a-z0-9_]+$, each registered at exactly one call site; " +
		"latency families must be HistogramVecs; span kinds must match ^[a-z]+(\\.[a-z_]+)+$",
	Run: runTelemetry,
}

var metricNameRx = regexp.MustCompile(`^goear_[a-z0-9_]+$`)

// latencyFamilyRx picks out per-operation latency families, which must
// be histogram vectors keyed by op.
var latencyFamilyRx = regexp.MustCompile(`^goear_[a-z0-9_]+_latency_seconds$`)

// spanKindRx is the span-kind shape: at least two dot-separated
// lowercase segments ("client.send", "eargm.island").
var spanKindRx = regexp.MustCompile(`^[a-z]+(\.[a-z_]+)+$`)

// registryMethods are the Registry methods whose first argument is a
// metric family name.
var registryMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterVec": true, "GaugeVec": true, "HistogramVec": true,
}

// traceKindArg maps the trace span constructors to the index of their
// span-kind argument.
var traceKindArg = map[string]int{
	"Root": 0, "RootNamed": 1, "Remote": 1, "Child": 0,
}

func runTelemetry(pass *analysis.Pass) error {
	type site struct {
		pos  token.Pos
		name string
	}
	sites := map[*types.Const][]site{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if idx, isSpan := traceKindArg[sel.Sel.Name]; isSpan && idx < len(call.Args) {
				if s, isMethod := pass.Info.Selections[sel]; isMethod && isTraceHandle(s.Recv()) {
					checkSpanKind(pass, stripParens(call.Args[idx]))
				}
				return true
			}
			if !registryMethods[sel.Sel.Name] {
				return true
			}
			s, isMethod := pass.Info.Selections[sel]
			if !isMethod || !isTelemetryRegistry(s.Recv()) {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			arg := stripParens(call.Args[0])
			c := constOf(pass, arg)
			if c == nil || c.Pkg() == nil || c.Parent() != c.Pkg().Scope() {
				pass.Reportf(arg.Pos(), "metric name passed to %s must be a package-level constant", sel.Sel.Name)
				return true
			}
			if c.Val().Kind() == constant.String {
				v := constant.StringVal(c.Val())
				if !metricNameRx.MatchString(v) {
					pass.Reportf(arg.Pos(), "metric name %q does not match ^goear_[a-z0-9_]+$", v)
				}
				if latencyFamilyRx.MatchString(v) && sel.Sel.Name != "HistogramVec" {
					pass.Reportf(arg.Pos(), "latency family %q must be registered as a HistogramVec keyed by op", v)
				}
			}
			sites[c] = append(sites[c], site{pos: arg.Pos(), name: c.Name()})
			return true
		})
	}
	// A constant registered from two call sites is a latent family
	// collision; report every site past the first, in source order.
	consts := make([]*types.Const, 0, len(sites))
	for c := range sites {
		consts = append(consts, c)
	}
	sort.Slice(consts, func(i, j int) bool { return sites[consts[i]][0].pos < sites[consts[j]][0].pos })
	for _, c := range consts {
		ss := sites[c]
		sort.Slice(ss, func(i, j int) bool { return ss[i].pos < ss[j].pos })
		for _, s := range ss[1:] {
			pass.Reportf(s.pos, "metric constant %s is registered at more than one call site", s.name)
		}
	}
	return nil
}

// constOf resolves an expression to the constant object it names, if
// any (a bare identifier or a pkg.Const selector).
func constOf(pass *analysis.Pass, e ast.Expr) *types.Const {
	switch e := e.(type) {
	case *ast.Ident:
		c, _ := pass.Info.Uses[e].(*types.Const)
		return c
	case *ast.SelectorExpr:
		c, _ := pass.Info.Uses[e.Sel].(*types.Const)
		return c
	}
	return nil
}

// checkSpanKind reports a span-kind argument whose constant value does
// not match the dotted-lowercase shape. Non-constant kinds (the trace
// package's own plumbing passes parameters through) are left alone:
// the rule is about the literal taxonomy, not the forwarding layers.
func checkSpanKind(pass *analysis.Pass, arg ast.Expr) {
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	if v := constant.StringVal(tv.Value); !spanKindRx.MatchString(v) {
		pass.Reportf(arg.Pos(), "span kind %q does not match ^[a-z]+(\\.[a-z_]+)+$", v)
	}
}

// isTraceHandle reports whether t is (a pointer to) the trace
// package's Tracer or Active type — the receivers of the span
// constructors.
func isTraceHandle(t types.Type) bool {
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
	if !analysis.PathMatches(named.Obj().Pkg().Path(), "internal/telemetry/trace") {
		return false
	}
	name := named.Obj().Name()
	return name == "Tracer" || name == "Active"
}

// isTelemetryRegistry reports whether t is (a pointer to) the
// telemetry package's Registry type.
func isTelemetryRegistry(t types.Type) bool {
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
	return analysis.PathMatches(named.Obj().Pkg().Path(), "internal/telemetry") &&
		named.Obj().Name() == "Registry"
}
