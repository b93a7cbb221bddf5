package main

import (
	"strings"
	"testing"

	"goear/internal/experiments"
)

func TestSingleExperiment(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "table2", "-runs", "1"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "DGEMM") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestCSVOutput(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "table2", "-runs", "1", "-csv"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "kernel,prog. model,") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if strings.Contains(out, "---") {
		t.Error("CSV output contains text-table rule")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-exp", "nope"}, &b); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// TestOrderCoversAllGenerators holds `-exp all` to the registry: it
// prints every registered experiment, in the registry's presentation
// order, exactly as the single-experiment invocations print them.
func TestOrderCoversAllGenerators(t *testing.T) {
	var all, each strings.Builder
	if err := run([]string{"-exp", "all", "-runs", "1"}, &all); err != nil {
		t.Fatal(err)
	}
	order := experiments.Order()
	if len(order) != len(experiments.IDs()) {
		t.Fatalf("registry order has %d ids, IDs() %d", len(order), len(experiments.IDs()))
	}
	for _, id := range order {
		if err := run([]string{"-exp", id, "-runs", "1"}, &each); err != nil {
			t.Fatal(err)
		}
	}
	if all.String() != each.String() {
		t.Error("-exp all is not the registry's experiments in the registry's order")
	}
}
