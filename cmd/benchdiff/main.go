// Command benchdiff compares `go test -bench` output against the
// committed benchmark baseline and gates CI on what repeats.
//
// It reads the standard benchmark text format (one file argument, or
// stdin), matches entries by name (GOMAXPROCS suffixes like "-8" are
// stripped), and prints a table of ns/op, allocs/op and B/op against
// the baseline. The gate is on the heap figures, which are properties
// of the code and repeat run to run: an entry fails the run — exit
// status 1 — when its allocs/op exceeds the baseline's by more than 2 %
// or its B/op by more than 5 %, the bounds BENCHMARK.json holds the
// same quantities to. It applies to every baseline entry that records
// the figure; an entry whose figure does not repeat on an unchanged
// tree simply does not record it (the baseline's label names those).
// ns/op is printed as information only: identical runs on one box
// differ by 10–40 %, so a single run's time gates nothing.
//
// With -out it also emits a snapshot of the parsed results in the
// baseline's JSON schema, so the repository accumulates a dated
// BENCH_<date>.json trajectory alongside BENCH_baseline.json (see
// DESIGN.md § Performance for how to read them).
//
// Examples:
//
//	go test -run XXX -bench . -benchtime=0.5s . | benchdiff
//	benchdiff -baseline BENCH_baseline.json bench.txt
//	benchdiff -out auto -label "after node pooling" bench.txt
//
// -out records what the run reported. To make such a snapshot the new
// baseline, delete the heap figures of the entries the old baseline's
// label lists as not repeating.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// entry is one benchmark's recorded figures. BytesPerOp and AllocsPerOp
// are nil when the benchmark does not report the figure — or, in the
// baseline, when it is deliberately left ungated; a recorded zero is a
// figure like any other (and gates at zero).
type entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

// The gate's bounds: how far above the baseline a heap figure may sit.
// They are BENCHMARK.json's bounds for allocs_per_work and
// alloc_bytes_per_work, constants on purpose.
const (
	allocsBound = 0.02
	bytesBound  = 0.05
)

// snapshot is the schema of BENCH_baseline.json and the dated
// BENCH_<date>.json trajectory files.
type snapshot struct {
	Date       string           `json:"date"`
	Label      string           `json:"label,omitempty"`
	Go         string           `json:"go,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	baseline := fs.String("baseline", "BENCH_baseline.json", "baseline snapshot to compare against")
	outFile := fs.String("out", "", "write a snapshot of the parsed results here ('auto' = BENCH_<date>.json)")
	date := fs.String("date", time.Now().Format("2006-01-02"), "date stamped into the emitted snapshot")
	label := fs.String("label", "", "free-form label stamped into the emitted snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := stdin
	switch fs.NArg() {
	case 0:
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return fmt.Errorf("at most one input file (got %d)", fs.NArg())
	}

	cur, cpu, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(cur) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}

	base, err := loadSnapshot(*baseline)
	if err != nil {
		return err
	}

	if *outFile != "" {
		name := *outFile
		if name == "auto" {
			name, err = datedSnapshotName(*date)
			if err != nil {
				return err
			}
		}
		snap := snapshot{Date: *date, Label: *label, Go: runtime.Version(), CPU: cpu, Benchmarks: cur}
		if err := writeSnapshot(name, snap); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d benchmarks)\n", name, len(cur))
	}

	regressions := report(out, base, cur)
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) above %s by more than %g%% allocs/op or %g%% B/op: %s",
			len(regressions), *baseline, allocsBound*100, bytesBound*100, strings.Join(regressions, ", "))
	}
	return nil
}

// over reports whether cur sits above base by more than bound; both
// must be recorded for the figure to gate.
func over(base, cur *int64, bound float64) bool {
	return base != nil && cur != nil && float64(*cur) > float64(*base)*(1+bound)
}

// figure renders a heap figure against its baseline: "46", "46->52",
// or "-" when the run does not report it.
func figure(base, cur *int64) string {
	switch {
	case cur == nil:
		return "-"
	case base == nil || *base == *cur:
		return fmt.Sprint(*cur)
	}
	return fmt.Sprintf("%d->%d", *base, *cur)
}

// report prints the comparison table and returns the names of the
// benchmarks whose allocs/op or B/op sit above the baseline's by more
// than the bound.
func report(out io.Writer, base snapshot, cur map[string]entry) []string {
	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)

	var regressions []string
	fmt.Fprintf(out, "%-32s %14s %14s %8s %14s %20s  %s\n",
		"benchmark", "base ns/op", "ns/op", "(info)", "allocs/op", "B/op", "")
	for _, name := range names {
		c := cur[name]
		b, ok := base.Benchmarks[name]
		if !ok {
			fmt.Fprintf(out, "%-32s %14s %14.1f %8s %14s %20s  new\n",
				name, "-", c.NsPerOp, "-", figure(nil, c.AllocsPerOp), figure(nil, c.BytesPerOp))
			continue
		}
		var verdicts []string
		if over(b.AllocsPerOp, c.AllocsPerOp, allocsBound) {
			verdicts = append(verdicts, "REGRESSION allocs/op")
		}
		if over(b.BytesPerOp, c.BytesPerOp, bytesBound) {
			verdicts = append(verdicts, "REGRESSION B/op")
		}
		if len(verdicts) > 0 {
			regressions = append(regressions, name)
		}
		if b.AllocsPerOp == nil {
			verdicts = append(verdicts, "allocs/op not gated")
		}
		if b.BytesPerOp == nil {
			verdicts = append(verdicts, "B/op not gated")
		}
		fmt.Fprintf(out, "%-32s %14.1f %14.1f %+7.1f%% %14s %20s  %s\n",
			name, b.NsPerOp, c.NsPerOp, (c.NsPerOp-b.NsPerOp)/b.NsPerOp*100,
			figure(b.AllocsPerOp, c.AllocsPerOp), figure(b.BytesPerOp, c.BytesPerOp), strings.Join(verdicts, ", "))
	}
	var missing []string
	for name, b := range base.Benchmarks {
		if _, ok := cur[name]; !ok && (b.AllocsPerOp != nil || b.BytesPerOp != nil) {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		// A gated benchmark that silently disappears from the run would
		// otherwise dodge the gate forever; surface it loudly (but a
		// partial run is legitimate, so do not fail on it).
		fmt.Fprintf(out, "%-32s missing from input (gated in the baseline)\n", name)
	}
	return regressions
}

// benchLine matches one result line of `go test -bench` text output,
// e.g. "BenchmarkSimSecond-8  12217  82110 ns/op  12928 B/op  46 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench reads benchmark text output, returning entries keyed by
// name (GOMAXPROCS suffix stripped) and the "cpu:" header if present.
func parseBench(r io.Reader) (map[string]entry, string, error) {
	out := make(map[string]entry)
	cpu := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		e, err := parseFields(strings.Fields(m[2]))
		if err != nil {
			return nil, "", fmt.Errorf("line %q: %w", line, err)
		}
		// go test repeats a benchmark under -count; keep the last run.
		out[m[1]] = e
	}
	return out, cpu, sc.Err()
}

// parseFields decodes the value/unit pairs after the iteration count.
// Unknown units (MB/s, custom metrics) are ignored.
func parseFields(fields []string) (entry, error) {
	var e entry
	if len(fields)%2 != 0 {
		return e, fmt.Errorf("odd value/unit field count")
	}
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return e, fmt.Errorf("bad value %q: %w", fields[i], err)
		}
		switch fields[i+1] {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			n := int64(v)
			e.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			e.AllocsPerOp = &n
		}
	}
	if e.NsPerOp == 0 {
		return e, fmt.Errorf("no ns/op field")
	}
	return e, nil
}

func loadSnapshot(path string) (snapshot, error) {
	var s snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return s, fmt.Errorf("%s: no benchmarks", path)
	}
	return s, nil
}

// datedSnapshotName resolves '-out auto' to BENCH_<date>.json without
// clobbering an earlier snapshot from the same day: when the dated
// name is taken, a "-N" suffix is appended (BENCH_<date>-1.json, -2,
// ...), so repeated runs accumulate instead of silently overwriting.
func datedSnapshotName(date string) (string, error) {
	name := "BENCH_" + date + ".json"
	if _, err := os.Stat(name); os.IsNotExist(err) {
		return name, nil
	} else if err != nil {
		return "", err
	}
	for n := 1; ; n++ {
		name = fmt.Sprintf("BENCH_%s-%d.json", date, n)
		if _, err := os.Stat(name); os.IsNotExist(err) {
			return name, nil
		} else if err != nil {
			return "", err
		}
	}
}

func writeSnapshot(path string, s snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
