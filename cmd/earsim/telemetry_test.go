package main

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTelemetryDump runs a policy workload with telemetry on and
// checks the final metrics and event snapshots: simulator, policy and
// experiment-cache families must be populated and every policy decision
// logged.
func TestTelemetryDump(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "metrics.prom")
	ePath := filepath.Join(dir, "events.jsonl")
	var b strings.Builder
	err := run([]string{
		"-workload", "BT-MZ.C", "-policy", "min_energy_eufs", "-runs", "1",
		"-metrics-out", mPath, "-events-out", ePath,
	}, &b)
	if err != nil {
		t.Fatal(err)
	}

	metrics, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE goear_sim_steps_total counter",
		"goear_sim_node_runs_total",
		"# TYPE goear_sim_mpi_events_total counter",
		"# TYPE goear_sim_signatures_total counter",
		`goear_policy_decisions_total{policy="min_energy_eufs",state="ready"}`,
		`goear_policy_validations_total{policy="min_energy_eufs",result="ok"}`,
		`goear_experiments_cache_requests_total{cache="run"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics snapshot missing %q", want)
		}
	}

	events, err := os.ReadFile(ePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), `"kind":"policy.decision"`) ||
		!strings.Contains(string(events), `"policy":"min_energy_eufs"`) {
		t.Errorf("event log missing policy decisions:\n%.400s", events)
	}
}

// TestTelemetryHTTP serves the run's telemetry over HTTP and checks
// the bound address is announced.
func TestTelemetryHTTP(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-workload", "DGEMM", "-runs", "1", "-telemetry", "127.0.0.1:0",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "telemetry: serving http://") {
		t.Errorf("output missing telemetry address:\n%s", b.String())
	}
}

// TestPowercapMetrics checks that -powercap hands the run's telemetry
// set to the global manager: eargm uses no set it is not given.
func TestPowercapMetrics(t *testing.T) {
	mPath := filepath.Join(t.TempDir(), "metrics.prom")
	var b strings.Builder
	err := run([]string{
		"-workload", "BT-MZ.C", "-powercap", "300", "-runs", "1", "-metrics-out", mPath,
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "goear_eargm_intervals_total") {
		t.Errorf("metrics snapshot missing goear_eargm_intervals_total:\n%.400s", metrics)
	}
}

// TestDecisionEventsGolden pins the bytes -events-out writes for a
// two-node BQCD run under min_energy_eufs: every policy.decision event,
// the ones with a prediction and the ones without, as FNV-64a over the
// file. A change to how EARL's decisions are recorded that moves one
// byte of /events fails here.
func TestDecisionEventsGolden(t *testing.T) {
	ePath := filepath.Join(t.TempDir(), "events.jsonl")
	var b strings.Builder
	err := run([]string{
		"-workload", "BQCD", "-policy", "min_energy_eufs", "-nodes", "2", "-events-out", ePath,
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	events, err := os.ReadFile(ePath)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(events)
	if got, want := h.Sum64(), uint64(0x3b40af3109c48ade); got != want {
		t.Errorf("events digest %#016x (%d bytes, %d lines), want %#016x",
			got, len(events), strings.Count(string(events), "\n"), want)
	}
}
