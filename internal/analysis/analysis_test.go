package analysis

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPathMatches(t *testing.T) {
	cases := []struct {
		path, pattern string
		want          bool
	}{
		{"goear/internal/sim", "internal/sim", true},
		{"goear/internal/sim", "sim", true},
		{"goear/internal/sim", "goear/internal/sim", true},
		{"goear/internal/sim", "internal", true},
		{"goear/internal/simx", "internal/sim", false},
		{"goear/internal/sim", "internal/simx", false},
		{"goear/internal/sim", "al/sim", false},
		{"fix/internal/sim", "internal/sim", true},
		{"goear/internal/experiments", "internal/sim", false},
		{"goear", "internal", false},
		{"goear/internal/sim", "", false},
		{"goear/internal/units", "internal/units", true},
	}
	for _, c := range cases {
		if got := PathMatches(c.path, c.pattern); got != c.want {
			t.Errorf("PathMatches(%q, %q) = %v, want %v", c.path, c.pattern, got, c.want)
		}
	}
}

func TestAnalyzerAppliesTo(t *testing.T) {
	a := &Analyzer{Name: "x", Scope: []string{"internal/sim", "internal/policy"}}
	if !a.appliesTo("goear/internal/sim") || a.appliesTo("goear/internal/msr") {
		t.Error("scope matching is wrong")
	}
	unscoped := &Analyzer{Name: "y"}
	if !unscoped.appliesTo("anything/at/all") {
		t.Error("empty scope must match every package")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "determinism", File: "a/b.go", Line: 3, Col: 7, Message: "no"}
	if got := d.String(); got != "a/b.go:3:7: no (determinism)" {
		t.Errorf("String() = %q", got)
	}
}

// TestRunSortsAndScopes drives Run end-to-end over a real loaded
// package: the findings of two analyzers come back in position order,
// and a scoped analyzer does not run outside its scope.
func TestRunSortsAndScopes(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func f() int {
	return 1
}

func g() int {
	return 2
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	l.AddDir("fix/p", dir)
	pkg, err := l.Load("fix/p")
	if err != nil {
		t.Fatal(err)
	}

	reportEach := func(name string, match func(ast.Node) bool) *Analyzer {
		return &Analyzer{
			Name: name,
			Run: func(pass *Pass) error {
				for _, f := range pass.Files {
					ast.Inspect(f, func(n ast.Node) bool {
						if match(n) {
							pass.Reportf(n.Pos(), "%s found", name)
						}
						return true
					})
				}
				return nil
			},
		}
	}
	returns := reportEach("returns", func(n ast.Node) bool { _, ok := n.(*ast.ReturnStmt); return ok })
	funcs := reportEach("funcs", func(n ast.Node) bool { _, ok := n.(*ast.FuncDecl); return ok })
	diags, err := Run([]*Package{pkg}, []*Analyzer{returns, funcs})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d %s", d.Line, d.Analyzer))
	}
	if want := "3 funcs, 4 returns, 7 funcs, 8 returns"; strings.Join(got, ", ") != want {
		t.Errorf("findings = %s, want %s", strings.Join(got, ", "), want)
	}

	scoped := &Analyzer{
		Name:  "scoped",
		Scope: []string{"internal/sim"},
		Run: func(pass *Pass) error {
			t.Error("scoped analyzer ran outside its scope")
			return nil
		},
	}
	if _, err := Run([]*Package{pkg}, []*Analyzer{scoped}); err != nil {
		t.Fatal(err)
	}
}

func TestLoaderModule(t *testing.T) {
	l := NewLoader()
	mod, err := l.AddModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	if mod != "goear" {
		t.Errorf("module path = %q", mod)
	}
	paths := l.Paths()
	wantSome := []string{"goear", "goear/internal/units", "goear/internal/msr", "goear/cmd/earsim"}
	for _, w := range wantSome {
		found := false
		for _, p := range paths {
			if p == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registered paths are missing %q", w)
		}
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("testdata package %q must not be registered", p)
		}
	}

	pkg, err := l.Load("goear/internal/units")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Scope().Lookup("Freq") == nil {
		t.Error("loaded units package has no Freq type")
	}
	again, err := l.Load("goear/internal/units")
	if err != nil || again != pkg {
		t.Error("Load must cache packages")
	}
}

func TestLoaderUnknownPackage(t *testing.T) {
	l := NewLoader()
	if _, err := l.Load("no/such/pkg"); err == nil {
		t.Error("expected error for unregistered package")
	}
}

func TestModuleNameErrors(t *testing.T) {
	dir := t.TempDir()
	gomod := filepath.Join(dir, "go.mod")
	if _, err := moduleName(gomod); err == nil {
		t.Error("expected error for missing go.mod")
	}
	if err := os.WriteFile(gomod, []byte("go 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := moduleName(gomod); err == nil {
		t.Error("expected error for go.mod without module line")
	}
	if err := os.WriteFile(gomod, []byte("module example/mod\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	name, err := moduleName(gomod)
	if err != nil || name != "example/mod" {
		t.Errorf("moduleName = %q, %v", name, err)
	}
}
