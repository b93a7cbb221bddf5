package analyzers

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"goear/internal/analysis"
)

// TestGolden runs every analyzer over its fixture package under
// ../testdata/src and matches the reported diagnostics against the
// // want `regex` expectation comments in the fixture sources. Every
// diagnostic must be wanted on its exact line, and every want must be
// matched.
func TestGolden(t *testing.T) {
	loader := analysis.NewLoader()
	if _, err := loader.AddModule("../../.."); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		analyzer   *analysis.Analyzer
		importPath string
		fixture    string
	}{
		{determinism, "fix/internal/sim", "../testdata/src/determinism"},
		{errcheck, "fix/internal/errs", "../testdata/src/errcheck"},
	}
	for _, c := range cases {
		loader.AddDir(c.importPath, c.fixture)
	}
	for _, c := range cases {
		t.Run(c.analyzer.Name, func(t *testing.T) {
			pkg, err := loader.Load(c.importPath)
			if err != nil {
				t.Fatal(err)
			}
			diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{c.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			checkWants(t, pkg, diags)
		})
	}
}

// want expectations look like:
//
//	expr // want `regexp` `another regexp`
//
// with each backquoted (or double-quoted) pattern expecting one
// diagnostic on that line.
var wantRx = regexp.MustCompile("//\\s*want\\s+((?:(?:`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")\\s*)+)")

var wantArgRx = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type wantExpectation struct {
	rx      *regexp.Regexp
	matched bool
}

// collectWants parses the expectation comments of the fixture files.
func collectWants(t *testing.T, pkg *analysis.Package) map[string][]*wantExpectation {
	t.Helper()
	wants := map[string][]*wantExpectation{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, arg := range wantArgRx.FindAllString(m[1], -1) {
					var pattern string
					if strings.HasPrefix(arg, "`") {
						pattern = strings.Trim(arg, "`")
					} else {
						var err error
						pattern, err = strconv.Unquote(arg)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", key, arg, err)
						}
					}
					rx, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, pattern, err)
					}
					wants[key] = append(wants[key], &wantExpectation{rx: rx})
				}
			}
		}
	}
	return wants
}

// checkWants matches diagnostics against expectations one-to-one.
func checkWants(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.rx)
			}
		}
	}
}

// TestFixtureCount guards against fixtures silently losing their
// teeth: each fixture package must keep producing findings.
func TestFixtureCount(t *testing.T) {
	loader := analysis.NewLoader()
	if _, err := loader.AddModule("../../.."); err != nil {
		t.Fatal(err)
	}
	loader.AddDir("fix/internal/sim", "../testdata/src/determinism")
	pkg, err := loader.Load("fix/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{determinism})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) < 5 {
		t.Errorf("determinism fixture produced %d diagnostics, want >= 5", len(diags))
	}
	for _, d := range diags {
		if d.Analyzer != "determinism" {
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
	}
}

// TestAllRegistry pins the suite composition.
func TestAllRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing metadata", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	wants := []string{"determinism", "errcheck"}
	for _, want := range wants {
		if !names[want] {
			t.Errorf("suite is missing analyzer %q", want)
		}
	}
	if len(names) != len(wants) {
		t.Errorf("suite has %d analyzers, want exactly %v", len(names), wants)
	}
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Errorf("All() is not sorted by name: %q before %q", all[i-1].Name, all[i].Name)
		}
	}
}

// TestWholeTreeClean holds the module to its own analyzers in the
// ordinary test run, so a finding in a package a change did not touch
// still fails that change's tests.
func TestWholeTreeClean(t *testing.T) {
	loader := analysis.NewLoader()
	if _, err := loader.AddModule("../../.."); err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll(loader.Paths())
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}
