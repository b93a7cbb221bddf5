package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScope pins the one scope rule: both checks hold every module
// package under internal/, and determinism skips internal/telemetry
// alone.
func TestScope(t *testing.T) {
	l := &Loader{module: "goear"}
	for _, c := range []struct {
		path      string
		det, errs bool
	}{
		{"goear/internal/sim", true, true},
		{"goear/internal/earl", true, true},
		{"goear/internal/eargm", true, true},
		{"goear/internal/analysis", true, true},
		{"goear/internal/telemetry", false, true},
		{"goear/internal/telemetry/trace", true, true},
		{"goear/internal", false, false},
		{"goear/internalx/sim", false, false},
		{"goear/cmd/earsim", false, false},
		{"goear/bench", false, false},
		{"goear", false, false},
		{"fix/internal/sim", false, false},
	} {
		if det, errs := l.scope(c.path); det != c.det || errs != c.errs {
			t.Errorf("scope(%q) = %v, %v; want %v, %v", c.path, det, errs, c.det, c.errs)
		}
	}
}

func TestLoaderModule(t *testing.T) {
	l, err := module()
	if err != nil {
		t.Fatal(err)
	}
	if l.module != "goear" {
		t.Errorf("module path = %q", l.module)
	}
	for _, w := range []string{"goear", "goear/internal/units", "goear/internal/msr", "goear/cmd/earsim"} {
		if _, ok := l.dirs[w]; !ok {
			t.Errorf("registered paths are missing %q", w)
		}
	}
	if _, ok := l.dirs["goear/internal"]; ok {
		t.Error("goear/internal holds no Go file and must not be registered")
	}
	for p, dir := range l.dirs {
		if strings.Contains(dir, "testdata") && !strings.HasPrefix(p, "fix/") {
			t.Errorf("testdata package %s (%s) must not be registered", p, dir)
		}
	}

	p, err := l.load("goear/internal/units")
	if err != nil {
		t.Fatal(err)
	}
	if p.types.Scope().Lookup("Freq") == nil {
		t.Error("loaded units package has no Freq type")
	}
	if again, err := l.load("goear/internal/units"); err != nil || again != p {
		t.Error("load must cache packages")
	}
}

func TestLoaderUnknownPackage(t *testing.T) {
	l, err := module()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.load("no/such/pkg"); err == nil {
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
