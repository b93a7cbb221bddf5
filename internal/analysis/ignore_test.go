package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadSnippet type-checks one source file as a package under the
// synthetic import path "fix/p".
func loadSnippet(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	l.AddDir("fix/p", dir)
	pkg, err := l.Load("fix/p")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// reportEveryReturn is a synthetic analyzer that reports every return
// statement carrying a value.
func reportEveryReturn() *Analyzer {
	return &Analyzer{
		Name: "returns",
		Doc:  "flags every returned expression",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if r, ok := n.(*ast.ReturnStmt); ok && len(r.Results) > 0 {
						pass.Reportf(r.Pos(), "value returned")
					}
					return true
				})
			}
			return nil
		},
	}
}

// TestIgnoreReasonlessSurfacesThroughRun pins that a directive without
// a reason is itself reported by Run as a finding of the pseudo-
// analyzer "ignore" — and suppresses nothing.
func TestIgnoreReasonlessSurfacesThroughRun(t *testing.T) {
	pkg := loadSnippet(t, `package p

func f() int {
	return 1 //goearvet:ignore
}
`)
	diags, err := Run([]*Package{pkg}, []*Analyzer{reportEveryReturn()})
	if err != nil {
		t.Fatal(err)
	}
	var sawIgnore, sawFinding bool
	for _, d := range diags {
		switch d.Analyzer {
		case "ignore":
			sawIgnore = true
			if !strings.Contains(d.Message, "needs a reason") {
				t.Errorf("ignore finding message = %q", d.Message)
			}
		case "returns":
			sawFinding = true
		}
	}
	if !sawIgnore {
		t.Error("reasonless directive was not reported as an ignore finding")
	}
	if !sawFinding {
		t.Error("reasonless directive suppressed the finding on its line")
	}
}

// TestIgnoreTrailingAndOwnLinePlacement pins both placements through
// Run: a trailing directive suppresses its own line, an own-line
// directive the line below, and neither leaks to other lines.
func TestIgnoreTrailingAndOwnLinePlacement(t *testing.T) {
	pkg := loadSnippet(t, `package p

func trailing() int {
	return 1 //goearvet:ignore trailing form
}

func ownLine() int {
	//goearvet:ignore own-line form covers the next line
	return 2
}

func unprotected() int {
	return 3
}
`)
	diags, err := Run([]*Package{pkg}, []*Analyzer{reportEveryReturn()})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diags = %v, want only the unprotected return", diags)
	}
	if diags[0].Line != 13 {
		t.Errorf("finding at line %d, want 13 (unprotected)", diags[0].Line)
	}
}
