package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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

// campaign is `benchtables -exp all` at the default flags (three runs,
// default parallelism) and the context that rendered it.
type campaign struct {
	ctx *experiments.Context
	all []byte
	err error
}

// defaultCampaign renders the whole campaign once per test binary:
// TestResultsFullMatchesDefaultFlags compares it with results_full.txt
// and TestOrderCoversAllGenerators renders each experiment again from
// the same context, out of its caches. TestOrderCoversAllGenerators'
// fresh-context `-exp table2` call ties these settings to the flags'
// defaults.
var defaultCampaign = sync.OnceValue(func() campaign {
	ctx := experiments.New()
	ctx.Runs, ctx.Parallel = 3, runtime.GOMAXPROCS(0)
	var all bytes.Buffer
	err := generate(ctx, "all", false, &all)
	return campaign{ctx: ctx, all: all.Bytes(), err: err}
})

// TestResultsFullMatchesDefaultFlags ties the committed results_full.txt
// to the command that claims to produce it: `benchtables -exp all` at
// the default flags must reproduce the file byte for byte, so the
// published numbers cannot drift from the code. After a deliberate
// model change regenerate it with
// `go run ./cmd/benchtables -exp all > results_full.txt`.
func TestResultsFullMatchesDefaultFlags(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "results_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	c := defaultCampaign()
	if c.err != nil {
		t.Fatal(c.err)
	}
	if !bytes.Equal(c.all, want) {
		t.Errorf("`benchtables -exp all` differs from results_full.txt (%d vs %d bytes)", len(c.all), len(want))
	}
}

// TestParallelMatchesSequential is the engine's core guarantee: the
// byte stream is identical at every worker count. Each invocation uses
// a fresh context, so nothing is shared between the two runs but the
// seeds.
func TestParallelMatchesSequential(t *testing.T) {
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

func TestParallelFlagValidation(t *testing.T) {
	var b bytes.Buffer
	if err := run([]string{"-exp", "table2", "-parallel", "0"}, &b); err == nil {
		t.Error("expected error for -parallel 0")
	}
}
