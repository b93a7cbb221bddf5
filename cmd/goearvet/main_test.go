package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"goear/internal/analysis"
)

func TestListAnalyzers(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "determinism errcheck unitsafety"; got != want {
		t.Errorf("-list names %q, want exactly %q:\n%s", got, want, out.String())
	}
}

func TestListSorted(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if fields := strings.Fields(line); len(fields) > 0 {
			names = append(names, fields[0])
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("-list output is not sorted by name: %v", names)
	}
}

func TestCleanPackage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"goear/internal/units"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if out.String() != "" {
		t.Errorf("clean package produced output: %s", out.String())
	}
}

// TestWholeTreeClean holds the repository to its own analyzers in the
// ordinary test run, so a finding in a package a change did not touch
// still fails that change's tests.
func TestWholeTreeClean(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"goear/..."}, &out, &errOut); code != 0 || out.Len() != 0 {
		t.Fatalf("exit = %d, stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-json", "goear/internal/units"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, out.String())
	}
	if len(diags) != 0 {
		t.Errorf("expected clean JSON run, got %v", diags)
	}

	// A throwaway module whose sim package collects map keys in
	// iteration order: each finding object carries exactly the
	// position and the message, and nothing beside them.
	root := t.TempDir()
	for rel, content := range map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"internal/sim/sim.go": "package sim\n\nfunc Keys(m map[string]int) []string {\n" +
			"\tvar out []string\n\tfor k := range m {\n\t\tout = append(out, k)\n\t}\n\treturn out\n}\n",
	} {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(root)
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-json", "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	var objs []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &objs); err != nil {
		t.Fatalf("-json output is not an object array: %v\n%s", err, out.String())
	}
	if len(objs) == 0 {
		t.Fatal("no findings reported for map-order output in a sim package")
	}
	want := []string{"analyzer", "col", "file", "line", "message"}
	for _, o := range objs {
		keys := make([]string, 0, len(o))
		for k := range o {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, ",") != strings.Join(want, ",") {
			t.Errorf("finding keys = %v, want %v", keys, want)
		}
	}
}

func TestBadPattern(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"goear/no/such/pkg"}, &out, &errOut); code != 2 {
		t.Errorf("exit = %d, want 2 for unknown pattern", code)
	}
}

// TestAllAnalyzersDisabled: no analyzer can be switched off, from the
// command line or in the source, so the old per-analyzer toggles are
// usage errors.
func TestAllAnalyzersDisabled(t *testing.T) {
	for _, name := range []string{"determinism", "unitsafety", "msrfield", "errcheck", "concurrency",
		"telemetry", "policyreg", "conftag", "fixture"} {
		var out, errOut strings.Builder
		if code := run([]string{"-" + name + "=false", "goear/internal/units"}, &out, &errOut); code != 2 {
			t.Errorf("-%s=false: exit = %d, want 2 (no such flag)", name, code)
		}
	}
}

func TestRecursivePatternScopesToSubtree(t *testing.T) {
	// From this package's directory, ./... covers only cmd/goearvet.
	var out, errOut strings.Builder
	if code := run([]string{"./..."}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
}
