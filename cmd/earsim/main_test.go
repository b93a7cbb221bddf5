package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"goear/internal/eard"
	"goear/internal/policy"
)

func TestBaselineRun(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-workload", "BT-MZ.C", "-runs", "1"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"BT-MZ.C under none", "DC power", "avg IMC"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPolicyRunWithCompare(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-workload", "BT-MZ.C", "-policy", "min_energy_eufs",
		"-runs", "1", "-compare",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"vs nominal baseline", "energy saving", "RAPL PCK"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestPinnedUncore(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-workload", "BT-MZ.C", "-pin-uncore", "1.5", "-pin-cpu-pstate", "1", "-runs", "1",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "1.49 GHz") && !strings.Contains(b.String(), "1.50 GHz") {
		t.Errorf("pinned IMC not reflected:\n%s", b.String())
	}
	// A pin is 0 or a frequency the uncore can run at (1.2-2.4 GHz);
	// anything else is an error, not a clamp or a silent fallback.
	for _, v := range []string{"99", "inf", "NaN", "-2", "0.04"} {
		if err := run([]string{"-workload", "BT-MZ.C", "-pin-uncore", v, "-runs", "1"}, &b); err == nil {
			t.Errorf("-pin-uncore %s: expected error", v)
		}
	}
}

// TestNodesPowercapCampaign drives the one CLI path into a coordinated
// run: -nodes scales the catalogue workload to cluster size and
// -powercap puts it under the global manager. The fan-out follows
// GOMAXPROCS, and the printed result must not: it is identical at 1, 2
// and 4 (sim.TestCallGranularityIndependence holds the engine to the
// same contract against ReferenceStep).
func TestNodesPowercapCampaign(t *testing.T) {
	campaign := func(procs int) string {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var out strings.Builder
		args := []string{"-workload", "BT-MZ.C", "-nodes", "6", "-powercap", "1900", "-seed", "2"}
		if err := run(args, &out); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		return out.String()
	}
	ref := campaign(1)
	for _, want := range []string{"run (powercapped): BT-MZ.C under none on 6 node(s)", "1900.00 W budget"} {
		if !strings.Contains(ref, want) {
			t.Fatalf("output missing %q:\n%s", want, ref)
		}
	}
	for _, procs := range []int{2, 4} {
		if got := campaign(procs); got != ref {
			t.Errorf("GOMAXPROCS=%d: result differs\n got: %s\nwant: %s", procs, got, ref)
		}
	}
}

func TestErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-workload", "nope"}, &b); err == nil {
		t.Error("expected error for unknown workload")
	}
	if err := run([]string{"-workload", "BT-MZ.C", "-policy", "bogus", "-runs", "1"}, &b); err == nil {
		t.Error("expected error for unknown policy")
	}
	if err := run([]string{"-model", "/does/not/exist", "-policy", "min_energy"}, &b); err == nil {
		t.Error("expected error for missing model file")
	}
	// The context reads Runs 0 as the paper's three; the flag must not.
	if err := run([]string{"-workload", "BT-MZ.C", "-runs", "0"}, &b); err == nil {
		t.Error("expected error for -runs 0")
	}
}

// TestPolicyUsageNamesEveryPolicy: -policy's help lists every name
// policy.New accepts.
func TestPolicyUsageNamesEveryPolicy(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "usage")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	err = run([]string{"-h"}, &strings.Builder{})
	os.Stderr = stderr
	if err == nil {
		t.Fatal("-h: expected flag.ErrHelp")
	}
	usage, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range policy.Names() {
		if !strings.Contains(string(usage), name) {
			t.Errorf("-policy usage is missing %q:\n%s", name, usage)
		}
	}
}

func TestAccountingFlow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.json")
	var b strings.Builder
	err := run([]string{
		"-workload", "BT-MZ.C", "-runs", "1", "-acct", path, "-job", "j7",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db := eard.NewDB()
	if err := db.Load(f); err != nil {
		t.Fatal(err)
	}
	sum, err := db.Summarize("j7", "0")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Nodes != 1 || sum.EnergyJ <= 0 {
		t.Errorf("accounting summary = %+v", sum)
	}
	// Appending a second job keeps the first.
	if err := run([]string{
		"-workload", "BT-MZ.C", "-runs", "1", "-acct", path, "-job", "j8",
	}, &b); err != nil {
		t.Fatal(err)
	}
	db2 := eard.NewDB()
	f2, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if err := db2.Load(f2); err != nil {
		t.Fatal(err)
	}
	if len(db2.Jobs()) != 2 {
		t.Errorf("jobs = %v, want 2", db2.Jobs())
	}
}

func TestTraceCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	var b strings.Builder
	err := run([]string{
		"-workload", "BT-MZ.C", "-policy", "min_energy_eufs", "-runs", "1", "-trace", path,
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 100 {
		t.Fatalf("trace lines = %d, want ~145", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_s,power_w,cpu_ghz,imc_ghz") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(b.String(), "trace:") {
		t.Error("trace confirmation missing from output")
	}
}

func TestSpecTemplateAndCustomSpec(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-spec-template"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"hw_uncore"`) {
		t.Errorf("template missing curve: %s", b.String())
	}
	// The emitted template must run as a custom spec.
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var b2 strings.Builder
	if err := run([]string{"-spec", path, "-runs", "1"}, &b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "my-app under none on 2 node(s)") {
		t.Errorf("custom spec output: %s", b2.String())
	}
	// Missing file errors.
	if err := run([]string{"-spec", filepath.Join(dir, "missing.json")}, &b2); err == nil {
		t.Error("expected error for missing spec file")
	}
}

// TestSpecTemplateGolden pins the workload file format byte for byte:
// a definition written against it must keep loading.
func TestSpecTemplateGolden(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-spec-template"}, &b); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "spec_template.json"))
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("-spec-template differs from testdata/spec_template.json\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestPowercapFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-workload", "BT-MZ.C", "-powercap", "300", "-runs", "1"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "powercapped") || !strings.Contains(out, "final cap p") {
		t.Errorf("powercap output missing: %s", out)
	}
}

func TestSiteConfiguration(t *testing.T) {
	dir := t.TempDir()
	conf := filepath.Join(dir, "ear.conf")
	if err := os.WriteFile(conf, []byte(
		"DefaultPolicy=min_energy_eufs\nDefaultCPUPolicyTh=0.03\nAuthorizedPolicies=monitoring,min_energy_eufs\n",
	), 0o644); err != nil {
		t.Fatal(err)
	}
	// The site default policy applies when no -policy flag is given.
	var b strings.Builder
	if err := run([]string{"-workload", "BT-MZ.C", "-runs", "1", "-conf", conf}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "under min_energy_eufs") {
		t.Errorf("site default policy not applied:\n%s", b.String())
	}
	// Unauthorised policies are rejected.
	if err := run([]string{"-workload", "BT-MZ.C", "-runs", "1", "-conf", conf, "-policy", "min_time"}, &b); err == nil {
		t.Error("expected authorisation error")
	}
	// Explicit flags still win over site defaults when authorised.
	var b2 strings.Builder
	if err := run([]string{"-workload", "BT-MZ.C", "-runs", "1", "-conf", conf, "-policy", "monitoring"}, &b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "under monitoring") {
		t.Errorf("explicit policy lost:\n%s", b2.String())
	}
	// A broken file errors.
	bad := filepath.Join(dir, "bad.conf")
	if err := os.WriteFile(bad, []byte("Nope=1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-conf", bad}, &b2); err == nil {
		t.Error("expected parse error")
	}
}
