package analysis

import (
	"go/ast"
	"go/parser"
	"path"
	"regexp"
	"strings"
	"testing"
)

// TestRuleMutants proves every row of the rule table on a mutant it must
// refuse: a one-file package parsed from memory and type-checked by the
// shared loader under a module path the row reads, without replacing
// the package the loader holds there. The pointer assertion, the
// aliased net.Pipe, the pool with no literal and the perf.Evaluate
// method value each passed the grep step its row replaced; the init in
// a test file passes the rule if test files go unread.
func TestRuleMutants(t *testing.T) {
	l, err := module()
	if err != nil {
		t.Fatal(err)
	}
	hit := make([]bool, len(rules))
	for _, m := range []struct{ rule, path, src, want string }{
		{"One dial seam", "goear/internal/eardbd", "import nt \"net\"\nfunc mut() { nt.Pipe() }",
			`^mutant.go:2:\d+: net\.Pipe used in goear/internal/eardbd\.mut `},
		{"One dial seam", "goear/internal/eardbd", "func newPipe() {}\nfunc mut() { newPipe() }",
			`^mutant.go:2:\d+: goear/internal/eardbd\.newPipe used in goear/internal/eardbd\.mut `},
		{"Pool count held", "goear/internal/eardbd", "import \"sync\"\nvar mutPool sync.Pool",
			`^mutant.go:2:\d+: sync\.Pool used in goear/internal/eardbd\.mutPool `},
		{"One framing path", "goear/cmd/earctl", "import \"goear/internal/wire\"\nvar mut = wire.WriteFrame",
			`^mutant.go:2:\d+: goear/internal/wire\.WriteFrame used in goear/cmd/earctl\.mut `},
		{"Every query kind has an asker", "goear/internal/wire", "// QueryMut is named only in comments: wire.QueryMut.\nconst QueryMut = \"mut\"",
			`^mutant.go:2:\d+: goear/internal/wire\.QueryMut has no use outside `},
		{"One run path", "goear/cmd/earsim", "import . \"goear/internal/sim\"\nvar mut = RunAveraged",
			`^mutant.go:2:\d+: goear/internal/sim\.RunAveraged used in goear/cmd/earsim\.mut `},
		{"One run path", "goear/internal/loadgen", "import \"goear/internal/workload\"\nvar mut = workload.Spec.Calibrate",
			`^mutant.go:2:\d+: \(goear/internal/workload\.Spec\)\.Calibrate used in goear/internal/loadgen\.mut `},
		{"One run path", "goear/examples/quickstart", "import \"goear/internal/model\"\nvar mut = model.TrainForCPU",
			`^mutant.go:2:\d+: goear/internal/model\.TrainForCPU used in goear/examples/quickstart\.mut `},
		{"One site-config loader", "goear", "import \"goear/internal/earconf\"\nvar mut = earconf.Parse",
			`^mutant.go:2:\d+: goear/internal/earconf\.Parse used in goear\.mut `},
		{"One spec-file loader", "goear/cmd/earsim", "import \"goear/internal/workload\"\nvar mut = workload.LoadSpec",
			`^mutant.go:2:\d+: goear/internal/workload\.LoadSpec used in goear/cmd/earsim\.mut `},
		{"The load generator seeds no math/rand source", "goear/internal/loadgen", "import \"math/rand\"\nvar mut = rand.NewSource(1)",
			`^mutant.go:2:\d+: math/rand\.NewSource used in goear/internal/loadgen\.mut `},
		{"One evaluation site in the simulator", "goear/internal/sim", "import \"goear/internal/perf\"\nfunc mut() { _ = perf.Evaluate }",
			`^mutant.go:2:\d+: goear/internal/perf\.Evaluate used in goear/internal/sim\.mut `},
		{"One evaluation site in the simulator", "goear/internal/sim", "import \"goear/internal/perf\"\nfunc mut() { _ = perf.EvaluateAll }",
			`^mutant.go:2:\d+: goear/internal/perf\.EvaluateAll used in goear/internal/sim\.mut `},
		{"The simulator leaves RAPL to power.Rapl", "goear/internal/sim", "import \"goear/internal/msr\"\nconst mut = msr.MSRDramEnergyStatus",
			`^mutant.go:2:\d+: goear/internal/msr\.MSRDramEnergyStatus used in goear/internal/sim\.mut `},
		{"One comparison path in the campaign", "goear/internal/experiments", "import \"goear/internal/sim\"\nvar mut = sim.DeltaOf",
			`^mutant.go:2:\d+: goear/internal/sim\.DeltaOf used in goear/internal/experiments\.mut `},
		{"A policy is driven through its interface", "goear/internal/earl", "import \"goear/internal/policy\"\nfunc mut(x any) { _ = x.(*policy.Config) }",
			`^mutant.go:2:26: type assertion to an exported type used in goear/internal/earl\.mut `},
		{"A policy is driven through its interface", "goear/internal/sim", "import \"goear/internal/policy\"\nfunc mut(x any) {\nswitch x.(type) {\ncase nil, policy.Policy:\n}\n}",
			`^mutant.go:4:11: type assertion to an exported type used in goear/internal/sim\.mut `},
		{"A policy is driven through its interface", "goear/internal/policy", "type Predictor interface{ LastPrediction() float64 }\ntype mut struct{ p Predictor }",
			`^mutant.go:2:\d+: goear/internal/policy\.Predictor used in goear/internal/policy\.mut `},
		{"A policy is driven through its interface", "goear/internal/earl", "type Predictor interface{}\nfunc mut(p Predictor) {}",
			`^mutant.go:2:\d+: goear/internal/earl\.Predictor used in goear/internal/earl\.mut `},
		{"No raw goroutines in deterministic code", "goear/internal/policy", "func mut() { go func() {}() }",
			`^mutant.go:1:\d+: go statement used in goear/internal/policy\.mut `},
		{"No package init", "goear/bench", "func init() {}",
			`^mutant.go:1:\d+: init function used in goear/bench\.init `},
		{"No package init", "goear/internal/sim_test", "func init() {}",
			`^mutant_test.go:1:\d+: init function used in goear/internal/sim\.init `},
		{"Flag count held", "goear/cmd/earsim", "import (\n\"flag\"\n\"time\"\n)\nfunc mut(fs *flag.FlagSet, v flag.Value) {\nfs.Duration(\"d\", time.Second, \"\")\nfs.Var(v, \"v\", \"\")\n}",
			`^2 uses under cmd, want 88 `},
		{"One atomic writer", "goear/internal/eardbd", "import \"os\"\nfunc mut() error { return os.Rename(\"a\", \"b\") }",
			`^mutant.go:2:\d+: os\.Rename used in goear/internal/eardbd\.mut `},
	} {
		// The package clause shares the mutant's first line, so its
		// lines keep their numbers. A path ending in _test names an
		// external test package: its mutant is a test file beside the
		// package the loader holds, read untyped.
		under, test := strings.CutSuffix(m.path, "_test")
		name := "mutant.go"
		if test {
			name = "mutant_test.go"
		}
		f, err := parser.ParseFile(l.fset, name, "package "+path.Base(m.path)+"; "+m.src, 0)
		if err != nil {
			t.Fatalf("%s: %v", m.rule, err)
		}
		files, tests := []*ast.File{f}, []*ast.File(nil)
		if test {
			held, err := l.load(under)
			if err != nil {
				t.Fatalf("%s: %v", m.rule, err)
			}
			files, tests = held.files, files
		}
		p, err := l.typeCheck(under, files, tests)
		if err != nil {
			t.Fatalf("%s: %v", m.rule, err)
		}
		want := regexp.MustCompile(m.want)
		var got []string
		fired := false
		for i, r := range rules {
			if r.name != m.rule {
				continue
			}
			for _, b := range l.breaches([]rule{r}, []*pkg{p}) {
				got = append(got, b)
				if want.MatchString(b) {
					hit[i], fired = true, true
				}
			}
		}
		if !fired {
			t.Errorf("%s: no breach matches %q; got %q", m.rule, m.want, got)
		}
	}
	for i, h := range hit {
		if !h {
			t.Errorf("row %d (%s) is proven on no mutant", i, rules[i].name)
		}
	}
}
