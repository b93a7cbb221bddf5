package main

import (
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goear/internal/model"
)

func TestTrainToFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	var b strings.Builder
	if err := run([]string{"learn", "-platform", "SD530", "-o", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "held-out CPI projection error") {
		t.Errorf("missing accuracy report: %s", b.String())
	}
	if !strings.Contains(b.String(), "model written to "+path) {
		t.Errorf("missing file note: %s", b.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m model.Model
	if err := m.UnmarshalJSON(data); err != nil {
		t.Fatalf("written model does not parse: %v", err)
	}
	if m.AVX512Pstate != 3 {
		t.Errorf("AVX512 pstate = %d, want 3", m.AVX512Pstate)
	}
}

// TestTrainToStdout: with the default -o -, stdout is the model alone —
// the bytes -o file writes plus a line end — so `earctl learn > m.json`
// gives a file earsim -model reads.
func TestTrainToStdout(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"learn", "-platform", "GPUNode"}, &b); err != nil {
		t.Fatal(err)
	}
	var m model.Model
	if err := json.Unmarshal([]byte(b.String()), &m); err != nil {
		t.Fatalf("stdout is not a model: %v\n%s", err, b.String())
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := run([]string{"learn", "-platform", "GPUNode", "-o", path}, new(strings.Builder)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), string(data)+"\n"; got != want {
		t.Errorf("stdout is %d bytes, want the %d-byte file plus a line end", len(got), len(data))
	}
}

func TestUnknownPlatform(t *testing.T) {
	var b strings.Builder
	err := run([]string{"learn", "-platform", "bogus"}, &b)
	if err == nil {
		t.Fatal("expected error for unknown platform")
	}
	if !strings.Contains(err.Error(), "CascadeLake") {
		t.Errorf("error does not list the platforms: %v", err)
	}
}

// TestLearnWritesGoldenBytes ties the command to the model package's
// pin: the file learn writes is byte for byte the JSON whose FNV-64a
// digest model.TestTrainedCoefficientsGolden holds for
// each platform (the constants below are that test's json column).
func TestLearnWritesGoldenBytes(t *testing.T) {
	for name, want := range map[string]uint64{
		"SD530":       0x5ce4f55205fd2123,
		"CascadeLake": 0xa90d5786c0728b18,
		"GPUNode":     0x02d5eb02d16e0246,
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		var b strings.Builder
		if err := run([]string{"learn", "-platform", name, "-o", path}, &b); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		if got := h.Sum64(); got != want {
			t.Errorf("%s: learn wrote digest %#016x, golden is %#016x", name, got, want)
		}
	}
}
