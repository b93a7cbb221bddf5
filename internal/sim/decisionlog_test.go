package sim

import (
	"slices"
	"strings"
	"testing"

	"goear/internal/telemetry"
	"goear/internal/workload"
)

// decisionRun runs the four-node BQCD workload under min_energy with
// the decision log on and returns the recorded events as JSON lines
// plus the result.
func decisionRun(t *testing.T, workers int) (string, Result) {
	t.Helper()
	cal := calibrated(t, workload.BQCD)
	m := platformModel(t, cal.Platform)
	r, err := Run(cal, Options{
		Policy: "min_energy", Model: m, Seed: 7,
		DecisionLog: true, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return recordedEvents(t, r), r
}

// TestDecisionLogCapturesEveryDecision checks the log is complete: one
// event per EARL event on every node, each carrying the chosen CPU
// pstate and the measured signature.
func TestDecisionLogCapturesEveryDecision(t *testing.T) {
	log, r := decisionRun(t, 1)
	lines := strings.Split(strings.TrimRight(log, "\n"), "\n")
	total := 0
	for _, n := range r.Nodes {
		total += len(n.Decisions)
	}
	if total == 0 {
		t.Fatal("policy run produced no decisions")
	}
	if len(lines) != total {
		t.Fatalf("log has %d lines, result holds %d decisions", len(lines), total)
	}
	for i, line := range lines {
		for _, field := range []string{`"src":"node`, `"t":`, `"state":`, `"cpu_pstate":`, `"dc_power_w":`} {
			if !strings.Contains(line, field) {
				t.Fatalf("line %d lacks %s: %s", i, field, line)
			}
		}
	}
	// A policy run must include applied decisions with a predicted
	// operating point to compare against.
	if !strings.Contains(log, `"policy_state":`) || !strings.Contains(log, `"pred_power_w":`) {
		t.Errorf("log carries no applied decision with a prediction:\n%.400s", log)
	}
}

// TestDecisionLogWorkerInvariance pins the determinism contract of
// Options.DecisionLog: the decisions, and the telemetry event stream
// recorded from them, are identical at any Workers setting, because
// decisions are collected per node and recorded post-run in node order.
func TestDecisionLogWorkerInvariance(t *testing.T) {
	ref, refRes := decisionRun(t, 1)
	for _, workers := range []int{2, 8} {
		got, res := decisionRun(t, workers)
		if got != ref {
			t.Errorf("workers=%d: telemetry event stream differs from sequential run", workers)
		}
		for i := range res.Nodes {
			if !slices.Equal(res.Nodes[i].Decisions, refRes.Nodes[i].Decisions) {
				t.Errorf("workers=%d: node %d decisions differ from sequential run", workers, i)
			}
		}
	}
}

// recordedEvents feeds a result's decisions into a fresh recorder and
// renders the JSON-lines export.
func recordedEvents(t *testing.T, r Result) string {
	t.Helper()
	rec := telemetry.NewRecorder(0)
	r.RecordDecisions(rec)
	if len(rec.Events()) == 0 {
		t.Fatal("no events recorded from decisions")
	}
	var b strings.Builder
	if err := rec.WriteJSONLines(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
