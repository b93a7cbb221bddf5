package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"goear/internal/eardbd"
	"goear/internal/model"
	"goear/internal/policy"
	"goear/internal/wire"
	"goear/internal/workload"
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

// TestModelFromAnotherPlatformRefused: a model learned on Cascade Lake
// (2.4 GHz turbo) does not drive a workload on SD530 (2.6 GHz turbo);
// the run fails naming both instead of printing results.
func TestModelFromAnotherPlatformRefused(t *testing.T) {
	pl := workload.CascadeLake()
	m, err := model.TrainForCPU(pl.Machine, pl.Power)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cl.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err = run([]string{"-model", path, "-workload", "BT-MZ.C", "-policy", "min_energy_eufs", "-runs", "1"}, &b)
	if err == nil {
		t.Fatalf("a Cascade Lake model ran BT-MZ.C on SD530:\n%s", b.String())
	}
	for _, want := range []string{"2.4 GHz turbo", "2.6 GHz turbo"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if b.Len() != 0 {
		t.Errorf("refused run printed:\n%s", b.String())
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
	path := filepath.Join(dir, "jobs.db")
	var b strings.Builder
	err := run([]string{
		"-workload", "BT-MZ.C", "-runs", "1", "-acct", path, "-job", "j7",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := eardbd.LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := db.Summarize("j7", "0")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Nodes != 1 || sum.EnergyJ <= 0 {
		t.Errorf("accounting summary = %+v", sum)
	}
	// Appending a second job keeps the first, and what a daemon saved
	// beside the records.
	kept := eardbd.Saved{Powers: []wire.NodePower{{Node: "n01", PowerW: 250}}, Gen: 4}
	if err := eardbd.SaveState(path, db, kept); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{
		"-workload", "BT-MZ.C", "-runs", "1", "-acct", path, "-job", "j8",
	}, &b); err != nil {
		t.Fatal(err)
	}
	db2, saved, err := eardbd.LoadState(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.Jobs()) != 2 {
		t.Errorf("jobs = %v, want 2", db2.Jobs())
	}
	if !reflect.DeepEqual(saved, kept) {
		t.Errorf("appending a run rewrote the saved state %+v as %+v", kept, saved)
	}
}

// TestAcctFileGolden pins the state file `earsim -acct` writes for a
// fresh path, byte for byte: earctl's TestAccountingFileFlow reads the
// same testdata file as earsim's output. After a deliberate model
// change, delete it and regenerate it with
// `go run ./cmd/earsim -workload HPCG -policy min_energy_eufs -runs 1 -acct cmd/earsim/testdata/hpcg_node.db`.
func TestAcctFileGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.db")
	var b strings.Builder
	if err := run([]string{"-workload", "HPCG", "-policy", "min_energy_eufs", "-runs", "1", "-acct", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "accounting: recorded 4 node(s) under job job0 in "+path) {
		t.Errorf("output names no accounting file:\n%s", b.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "hpcg_node.db"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("-acct wrote %d bytes that differ from testdata/hpcg_node.db (%d bytes)", len(got), len(want))
	}
}

// TestModelFileRunsLikeInProcessTraining: a model file from the learning
// phase, encoded as `earctl learn -platform SD530 -o F` encodes it,
// drives a run to the output training in process gives. The run is
// HPCG's, which the model's projections steer: BT-MZ.C prints the same
// under a model whose every CPI projection is scaled by 1.5.
func TestModelFileRunsLikeInProcessTraining(t *testing.T) {
	pl := workload.SD530()
	m, err := model.TrainForCPU(pl.Machine, pl.Power)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-workload", "HPCG", "-policy", "min_energy_eufs", "-compare"}
	var fromFile, inProcess strings.Builder
	if err := run(append([]string{"-model", path}, args...), &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &inProcess); err != nil {
		t.Fatal(err)
	}
	if fromFile.String() != inProcess.String() {
		t.Errorf("-model prints\n%s\ntraining in process\n%s", fromFile.String(), inProcess.String())
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
	// It runs under a policy against the baseline as a catalogued
	// workload does.
	b2.Reset()
	if err := run([]string{"-spec", path, "-policy", "min_energy_eufs", "-compare", "-runs", "1"}, &b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "my-app under min_energy_eufs on 2 node(s)") || !strings.Contains(b2.String(), "vs nominal baseline") {
		t.Errorf("custom spec under a policy: %s", b2.String())
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
	// A budget is 0 (unmanaged) or finite and positive; NaN once ran
	// unmanaged without a word.
	for _, v := range []string{"NaN", "+Inf", "-Inf", "-300"} {
		if err := run([]string{"-workload", "BT-MZ.C", "-powercap", v, "-runs", "1"}, &b); err == nil {
			t.Errorf("-powercap %s: expected error", v)
		}
	}
}

// TestNaNSettingsRefused: a policy threshold or a site setting of NaN
// is refused, where it once ran — NaN fails every comparison a range
// test made — and so is a negative node count, which once ran the
// catalogued size.
func TestNaNSettingsRefused(t *testing.T) {
	var b strings.Builder
	for _, args := range [][]string{
		{"-policy", "min_energy_eufs", "-unc-th", "NaN"},
		{"-policy", "min_energy_eufs", "-cpu-th", "NaN"},
		{"-nodes", "-5"},
	} {
		if err := run(append([]string{"-workload", "BT-MZ.C", "-runs", "1"}, args...), &b); err == nil {
			t.Errorf("%v: expected error", args)
		}
	}
	dir := t.TempDir()
	for _, key := range []string{"DefaultCPUPolicyTh", "DefaultUncPolicyTh", "ClusterPowerBudgetW"} {
		conf := filepath.Join(dir, key+".conf")
		if err := os.WriteFile(conf, []byte(key+"=NaN\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-workload", "BT-MZ.C", "-runs", "1", "-conf", conf}, &b); err == nil {
			t.Errorf("-conf with %s=NaN: expected error", key)
		}
	}
}

// TestZeroThresholdRefused: a zero threshold once ran at the paper's
// default (5 % or 2 %) without a word; it is refused, naming the flag.
func TestZeroThresholdRefused(t *testing.T) {
	var b strings.Builder
	for _, flag := range []string{"-cpu-th", "-unc-th"} {
		err := run([]string{"-workload", "BT-MZ.C", "-runs", "1", "-policy", "min_energy_eufs", flag, "0"}, &b)
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("%s 0: got %v, want an error naming %s", flag, err, flag)
		}
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
