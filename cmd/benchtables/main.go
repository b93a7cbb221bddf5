// Command benchtables regenerates the paper's evaluation: every table
// and figure, or a selected one, rendered as text (or CSV for plotting).
//
// Experiments fan out -parallel at a time (default GOMAXPROCS), and
// each experiment fans its independent rows out again under the same
// bound, handing the rows' averaged seeds and cluster nodes only the
// workers the rows leave spare. So up to -parallel × -parallel
// simulations run at once: splitting the bound between the experiments
// instead is slower, since an experiment waiting on a run another one
// started would hold its worker idle. Model training uses every CPU
// at any setting. Simulation randomness is derived from explicit
// seeds, so the output is byte-identical at every -parallel setting —
// only the wall-clock time changes.
//
// Examples:
//
//	benchtables -exp all
//	benchtables -exp all -parallel 1     # sequential reference schedule
//	benchtables -exp table3
//	benchtables -exp fig7 -csv
//	benchtables -exp summary -runs 1
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"goear/internal/experiments"
	"goear/internal/par"
	"goear/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchtables", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id or 'all' (see earctl experiments)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	runs := fs.Int("runs", 3, "averaged runs per configuration (the paper uses 3)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"experiments generated at once, and each one's worker bound (1 = every run in order; output is identical at any setting)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the generation to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile (alloc_space) to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("-runs must be >= 1 (got %d)", *runs)
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1 (got %d)", *parallel)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			// The allocs profile covers the whole run; no GC trigger is
			// needed since alloc_space counts cumulative allocation.
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "benchtables: memprofile:", err)
			}
			f.Close()
		}()
	}

	ctx := experiments.New()
	ctx.Runs = *runs
	ctx.Parallel = *parallel
	return generate(ctx, *exp, *csv, out)
}

// generate renders experiment exp from ctx to out — every experiment,
// in the registry's presentation order, for "all" — ctx.Parallel of
// them at a time.
func generate(ctx *experiments.Context, exp string, csv bool, out io.Writer) error {
	ids := []string{exp}
	if exp == "all" {
		ids = experiments.Order()
	}
	// Experiments render into per-experiment buffers that are flushed
	// in presentation order, so the byte stream does not depend on
	// which experiment finishes first. The shared context deduplicates
	// the many runs the experiments have in common.
	bufs := make([]bytes.Buffer, len(ids))
	err := par.ForEach(ctx.Parallel, len(ids), func(i int) error {
		tabs, err := ctx.Generate(ids[i])
		if err != nil {
			return err
		}
		return renderTables(&bufs[i], tabs, csv)
	})
	if err != nil {
		return err
	}
	for i := range bufs {
		if _, err := out.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// renderTables writes an experiment's tables (text or CSV), each
// followed by a blank line, matching the historical streaming format.
func renderTables(w io.Writer, tabs []report.Table, csv bool) error {
	for _, t := range tabs {
		if csv {
			if err := t.CSV(w); err != nil {
				return err
			}
		} else {
			if err := t.Render(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
