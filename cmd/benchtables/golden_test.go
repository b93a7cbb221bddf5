package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"goear/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenCases pins the rendered output of representative experiments at
// -runs 1. Simulation randomness is fully seed-derived, so these bytes
// are reproducible on any machine; a diff means the model, a policy or
// the report formatting changed. Regenerate deliberately with:
//
//	go test ./cmd/benchtables -run TestGolden -update
var goldenCases = []struct {
	exp string
	csv bool
}{
	{exp: "table3"},
	{exp: "table3", csv: true},
	{exp: "summary"},
	{exp: "summary", csv: true},
}

func goldenPath(exp string, csv bool) string {
	ext := "txt"
	if csv {
		ext = "csv"
	}
	return filepath.Join("testdata", fmt.Sprintf("%s_runs1.%s", exp, ext))
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		name := tc.exp
		if tc.csv {
			name += "_csv"
		}
		t.Run(name, func(t *testing.T) {
			args := []string{"-exp", tc.exp, "-runs", "1", "-parallel", "1"}
			if tc.csv {
				args = append(args, "-csv")
			}
			var got bytes.Buffer
			if err := run(args, &got); err != nil {
				t.Fatal(err)
			}
			path := goldenPath(tc.exp, tc.csv)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from %s (rerun with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
					path, got.Bytes(), want)
			}
		})
	}
}

// campaign is `benchtables -exp all` at some flags and the context that
// rendered it.
type campaign struct {
	ctx *experiments.Context
	all []byte
	err error
}

// campaignAt returns the whole campaign at -runs runs and -parallel
// parallel, as run renders it, rendered once however often the returned
// function is called.
func campaignAt(runs, parallel int) func() campaign {
	return sync.OnceValue(func() campaign {
		ctx := experiments.New()
		ctx.Runs, ctx.Parallel = runs, parallel
		var all bytes.Buffer
		err := generate(ctx, "all", false, &all)
		return campaign{ctx: ctx, all: all.Bytes(), err: err}
	})
}

// defaultCampaign is the campaign at the default flags (three runs,
// default parallelism): TestResultsFullMatchesDefaultFlags compares it
// with results_full.txt and TestOrderCoversAllGenerators renders each
// experiment again from the same context, out of its caches.
// TestOrderCoversAllGenerators' fresh-context `-exp table2` call ties
// these settings to the flags' defaults.
var defaultCampaign = campaignAt(3, runtime.GOMAXPROCS(0))

// wantResultsFull compares c's bytes with the committed results_full.txt.
func wantResultsFull(t *testing.T, c campaign) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "results_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
	if !bytes.Equal(c.all, want) {
		t.Errorf("`benchtables -exp all` at -runs %d -parallel %d differs from results_full.txt (%d vs %d bytes)",
			c.ctx.Runs, c.ctx.Parallel, len(c.all), len(want))
	}
}

// TestResultsFullMatchesDefaultFlags ties the committed results_full.txt
// to the command that claims to produce it: `benchtables -exp all` at
// the default flags must reproduce the file byte for byte, so the
// published numbers cannot drift from the code. After a deliberate
// model change regenerate it with
// `go run ./cmd/benchtables -exp all > results_full.txt`.
func TestResultsFullMatchesDefaultFlags(t *testing.T) {
	wantResultsFull(t, defaultCampaign())
}

// TestResultsFullOnOneWorker: `-exp all -parallel 1` prints
// results_full.txt too. With one worker, one goroutine hands one pooled
// node every workload and policy in turn, so state that a renewed EARL
// library or policy kept from its last run would show up here as a
// diff.
func TestResultsFullOnOneWorker(t *testing.T) {
	wantResultsFull(t, campaignAt(3, 1)())
}

// TestParallelMatchesSequential is the engine's core guarantee: the
// byte stream is identical at every worker count. The whole `-runs 1`
// campaign must print the same bytes at -parallel 1 and -parallel 8,
// each side in its own context; each subtest runs one experiment at
// both worker counts in fresh contexts, so nothing is shared between
// the two runs but the seeds.
func TestParallelMatchesSequential(t *testing.T) {
	seq, par := campaignAt(1, 1)(), campaignAt(1, 8)()
	if seq.err != nil || par.err != nil {
		t.Fatal(seq.err, par.err)
	}
	if !bytes.Equal(seq.all, par.all) {
		t.Errorf("`-exp all -runs 1`: -parallel 8 prints %d bytes that differ from -parallel 1's %d", len(par.all), len(seq.all))
	}
	for _, exp := range []string{"table3", "fig3", "summary"} {
		t.Run(exp, func(t *testing.T) {
			var seq, par bytes.Buffer
			if err := run([]string{"-exp", exp, "-runs", "1", "-parallel", "1"}, &seq); err != nil {
				t.Fatal(err)
			}
			if err := run([]string{"-exp", exp, "-runs", "1", "-parallel", "8"}, &par); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seq.Bytes(), par.Bytes()) {
				t.Errorf("-parallel 8 output differs from sequential\nsequential:\n%s\nparallel:\n%s",
					seq.Bytes(), par.Bytes())
			}
		})
	}
}

// TestCampaignRunCache pins what the default campaign computes: three
// trained models, 17 calibrations and 114 distinct runs, each computed
// once. It adds no campaign run; a change that makes the campaign run
// more (or the same run twice) fails here.
func TestCampaignRunCache(t *testing.T) {
	c := defaultCampaign()
	if c.err != nil {
		t.Fatal(c.err)
	}
	s := c.ctx.Stats()
	if s.Models != 3 || s.Calibrations != 17 || s.Runs != 114 {
		t.Errorf("campaign cache keys: %d models, %d calibrations, %d runs; want 3, 17, 114",
			s.Models, s.Calibrations, s.Runs)
	}
	if s.ModelsTrained != s.Models || s.CalibrationsRun != s.Calibrations || s.RunsExecuted != s.Runs {
		t.Errorf("campaign computed %d models, %d calibrations, %d runs for %d, %d, %d keys: want each once",
			s.ModelsTrained, s.CalibrationsRun, s.RunsExecuted, s.Models, s.Calibrations, s.Runs)
	}
}

func TestParallelFlagValidation(t *testing.T) {
	var b bytes.Buffer
	if err := run([]string{"-exp", "table2", "-parallel", "0"}, &b); err == nil {
		t.Error("expected error for -parallel 0")
	}
}

// TestRunsFlagValidation: fewer than one averaged run is refused before
// any work, naming the flag, as earsim refuses it.
func TestRunsFlagValidation(t *testing.T) {
	for _, runs := range []string{"0", "-2"} {
		var b bytes.Buffer
		err := run([]string{"-exp", "table2", "-runs", runs}, &b)
		if err == nil || !strings.Contains(err.Error(), "-runs") {
			t.Errorf("-runs %s: err = %v, want an error naming -runs", runs, err)
		}
		if b.Len() != 0 {
			t.Errorf("-runs %s wrote %d bytes before refusing", runs, b.Len())
		}
	}
}
