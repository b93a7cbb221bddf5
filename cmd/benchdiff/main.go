// Command benchdiff compares `go test -bench` output against the
// committed benchmark baseline and gates CI on performance regressions.
//
// It reads the standard benchmark text format (one file argument, or
// stdin), matches entries by name (GOMAXPROCS suffixes like "-8" are
// stripped), and prints a table of ns/op and allocs/op deltas. Entries
// whose name starts with one of the gated prefixes fail the run — exit
// status 1 — when their ns/op regresses by more than -threshold
// relative to the baseline; everything else is informational.
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

// Entry is one benchmark's recorded figures. BytesPerOp and AllocsPerOp
// are zero when the benchmark does not report allocations.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Snapshot is the schema of BENCH_baseline.json and the dated
// BENCH_<date>.json trajectory files.
type Snapshot struct {
	Date       string           `json:"date"`
	Label      string           `json:"label,omitempty"`
	Go         string           `json:"go,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// defaultGates are the name prefixes whose ns/op regressions fail the
// run: the paper-artifact benchmarks, the simulator hot-path micros,
// the batch sweeps (BenchmarkBatch*/BenchmarkCluster*), the
// federation load-generator burst, the accounting query path and the
// ingest codec and spill journal micros (BenchmarkWire*/BenchmarkJournal*).
const defaultGates = "BenchmarkTable,BenchmarkFig,BenchmarkSim,BenchmarkNodeTick," +
	"BenchmarkBatch,BenchmarkCluster,BenchmarkEarload,BenchmarkJobQuery," +
	"BenchmarkWire,BenchmarkJournal"

func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	baseline := fs.String("baseline", "BENCH_baseline.json", "baseline snapshot to compare against")
	threshold := fs.Float64("threshold", 0.10, "relative ns/op regression that fails a gated benchmark")
	gates := fs.String("gate", defaultGates, "comma-separated name prefixes that are gated (empty gates nothing)")
	outFile := fs.String("out", "", "write a snapshot of the parsed results here ('auto' = BENCH_<date>.json)")
	date := fs.String("date", time.Now().Format("2006-01-02"), "date stamped into the emitted snapshot")
	label := fs.String("label", "", "free-form label stamped into the emitted snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *threshold <= 0 {
		return fmt.Errorf("-threshold must be > 0 (got %g)", *threshold)
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
		snap := Snapshot{Date: *date, Label: *label, Go: runtime.Version(), CPU: cpu, Benchmarks: cur}
		if err := writeSnapshot(name, snap); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d benchmarks)\n", name, len(cur))
	}

	regressions := report(out, base, cur, splitGates(*gates), *threshold)
	if len(regressions) > 0 {
		return fmt.Errorf("%d gated benchmark(s) regressed >%d%% vs %s: %s",
			len(regressions), int(*threshold*100), *baseline, strings.Join(regressions, ", "))
	}
	return nil
}

func splitGates(s string) []string {
	var out []string
	for _, g := range strings.Split(s, ",") {
		if g = strings.TrimSpace(g); g != "" {
			out = append(out, g)
		}
	}
	return out
}

func gated(name string, gates []string) bool {
	for _, g := range gates {
		if strings.HasPrefix(name, g) {
			return true
		}
	}
	return false
}

// report prints the comparison table and returns the names of gated
// benchmarks whose ns/op regressed beyond the threshold.
func report(out io.Writer, base Snapshot, cur map[string]Entry, gates []string, threshold float64) []string {
	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)

	var regressions []string
	fmt.Fprintf(out, "%-28s %14s %14s %8s %8s  %s\n",
		"benchmark", "base ns/op", "ns/op", "delta", "allocs", "")
	for _, name := range names {
		c := cur[name]
		b, ok := base.Benchmarks[name]
		if !ok {
			fmt.Fprintf(out, "%-28s %14s %14.1f %8s %8d  new\n", name, "-", c.NsPerOp, "-", c.AllocsPerOp)
			continue
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		verdict := ""
		switch {
		case gated(name, gates) && delta > threshold:
			verdict = "REGRESSION"
			regressions = append(regressions, name)
		case delta > threshold:
			verdict = "slower (not gated)"
		case delta < -threshold:
			verdict = "faster"
		}
		alloc := fmt.Sprintf("%d", c.AllocsPerOp)
		if c.AllocsPerOp != b.AllocsPerOp {
			alloc = fmt.Sprintf("%d->%d", b.AllocsPerOp, c.AllocsPerOp)
		}
		fmt.Fprintf(out, "%-28s %14.1f %14.1f %+7.1f%% %8s  %s\n",
			name, b.NsPerOp, c.NsPerOp, delta*100, alloc, verdict)
	}
	for name := range base.Benchmarks {
		if _, ok := cur[name]; !ok && gated(name, gates) {
			// A gated benchmark that silently disappears from the run
			// would otherwise dodge the gate forever; surface it loudly
			// (but a partial run is legitimate, so do not fail on it).
			fmt.Fprintf(out, "%-28s missing from input (in baseline, gated)\n", name)
		}
	}
	return regressions
}

// benchLine matches one result line of `go test -bench` text output,
// e.g. "BenchmarkSimSecond-8  12217  82110 ns/op  12928 B/op  46 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench reads benchmark text output, returning entries keyed by
// name (GOMAXPROCS suffix stripped) and the "cpu:" header if present.
func parseBench(r io.Reader) (map[string]Entry, string, error) {
	out := make(map[string]Entry)
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
func parseFields(fields []string) (Entry, error) {
	var e Entry
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
			e.BytesPerOp = int64(v)
		case "allocs/op":
			e.AllocsPerOp = int64(v)
		}
	}
	if e.NsPerOp == 0 {
		return e, fmt.Errorf("no ns/op field")
	}
	return e, nil
}

func loadSnapshot(path string) (Snapshot, error) {
	var s Snapshot
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

func writeSnapshot(path string, s Snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
