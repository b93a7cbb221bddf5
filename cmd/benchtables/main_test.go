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
// order, exactly as each renders on its own. The experiments render
// from the context that rendered the default campaign, so each is
// served from its caches; one CLI call — a fresh context at the default
// flags — keeps the -exp path under the same check.
func TestOrderCoversAllGenerators(t *testing.T) {
	c := defaultCampaign()
	if c.err != nil {
		t.Fatal(c.err)
	}
	order := experiments.Order()
	if len(order) != len(experiments.IDs()) {
		t.Fatalf("registry order has %d ids, IDs() %d", len(order), len(experiments.IDs()))
	}
	var each strings.Builder
	for _, id := range order {
		if err := generate(c.ctx, id, false, &each); err != nil {
			t.Fatal(err)
		}
	}
	if string(c.all) != each.String() {
		t.Error("-exp all is not the registry's experiments in the registry's order")
	}
	var cli, one strings.Builder
	if err := run([]string{"-exp", "table2"}, &cli); err != nil {
		t.Fatal(err)
	}
	if err := generate(c.ctx, "table2", false, &one); err != nil {
		t.Fatal(err)
	}
	if cli.String() != one.String() || !strings.Contains(string(c.all), one.String()) {
		t.Error("-exp table2 does not print what table2 renders in the campaign")
	}
}
