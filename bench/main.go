// Command bench is the repository benchmark: five fixed-work workloads
// driven only through exported functions of internal/*, eight
// end-to-end metrics per workload, and a per-layer ledger measured
// from outside. BENCHMARK.json at the repository root is its contract;
// README.md in this directory defines every metric and workload.
//
//	go run ./bench -workload ingest-steady -seed 1            # end-to-end metrics
//	go run ./bench -workload ingest-steady -seed 1 -trace 1   # layer ledger + traced trial
//	go run ./bench -aa 10                                     # A/A noise table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// procs is the CPU count the benchmark pins itself to, whatever the
// host offers: results from boxes of different widths stay comparable
// and the 2-core reference box is not oversubscribed.
const procs = 2

const (
	setupReps    = 5 // fewest set-up repetitions behind setup_s
	setupMaxReps = 400
	tracedPlain  = 3 // untraced trials a -trace 1 run compares its traced trial with
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    scale
	outDir   string // receives trace files and scratch data; git-ignored
}

// report is everything one run measured.
type report struct {
	unit      string
	sizes     string
	attempted int
	failed    int
	correct   bool
	digest    uint64
	endToEnd  []metric
	timing    []metric // work_per_s, cpu_us_per_work, latency_p50_us: reported, not gated
	perLayer  []metric
	selfTimes []selfTime
	counts    map[string]float64
	trials    []trialStats
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&opt.seconds, "seconds", 8, "how long to keep starting timed trials (each trial is fixed work)")
	trace := fs.Int("trace", 0, "1 = print the per-layer ledger and add a traced trial; 0 = end-to-end metrics")
	aa := fs.Int("aa", 0, "run N alternating sets of every workload and print the A/A noise table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = *trace != 0
	opt.scale = fullScale
	opt.outDir = "bench/out"

	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)

	if *aa > 0 {
		if err := runAA(*aa, opt, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if opt.workload == "" {
		fmt.Fprintln(stderr, "bench: -workload is required; one of", strings.Join(workloadNames(), ", "))
		return 2
	}
	printMetadata(stdout, opt)
	rep, err := runOne(opt)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printReport(stdout, rep, opt.trace)
	if !rep.correct {
		return 1
	}
	return 0
}

// runOne runs one workload and returns its report. An output-check
// failure is a report with correct=false, not an error: the run still
// prints what it measured.
func runOne(opt options) (report, error) {
	w, err := newWorkload(opt.workload, opt.seed, opt.scale)
	if err != nil {
		return report{}, err
	}
	defer func() { _ = w.close() }()
	rep := report{unit: w.unit(), correct: true}

	var setupSec []float64
	for spent := 0.0; ; {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return report{}, fmt.Errorf("%s: set-up: %w", opt.workload, err)
		}
		d := time.Since(t0).Seconds()
		setupSec = append(setupSec, d)
		spent += d
		if opt.trace {
			break // the ledger run does not report setup_s
		}
		if len(setupSec) >= setupReps && (spent >= opt.scale.setupBudgetSec || len(setupSec) >= setupMaxReps) {
			break
		}
	}
	rep.sizes = w.describe()

	var checkErr error
	check := func() {
		if err := w.verify(); err != nil && checkErr == nil {
			checkErr = err
		}
	}

	// Warm-up: first-use costs (page faults, lazy tables, heap growth)
	// land in a trial nobody reads; its outputs are checked.
	if _, err := measure(w, nil, 0); err != nil {
		return report{}, fmt.Errorf("%s: warm-up %w", opt.workload, err)
	}
	check()

	// A ledger run spends half its window on plain trials; the traced
	// trial and the layer pass take the rest.
	least, window := opt.scale.minTrials, time.Duration(opt.seconds)*time.Second
	if opt.trace {
		least, window = min(tracedPlain, least), window/2
	}
	deadline := time.Now().Add(window)
	var trials []trialStats
	for len(trials) < opt.scale.maxTrials && (len(trials) < least || time.Now().Before(deadline)) {
		ts, err := measure(w, nil, len(trials)+1)
		if err != nil {
			return report{}, fmt.Errorf("%s: %w", opt.workload, err)
		}
		trials = append(trials, ts)
	}
	rep.counts = w.counts()
	check()
	live := liveHeapMiB()
	rep.trials = trials
	rep.endToEnd, rep.timing = endToEnd(setupSec, trials, live)
	for _, t := range trials {
		rep.attempted += t.out.attempted
		rep.failed += t.out.failed
	}

	if opt.trace {
		tr := newTracer()
		traced, err := measure(w, tr, len(trials)+1)
		if err != nil {
			return report{}, fmt.Errorf("%s: traced %w", opt.workload, err)
		}
		check()
		path := filepath.Join(opt.outDir, opt.workload+".trace.jsonl")
		if err := tr.write(path); err != nil {
			return report{}, err
		}
		rep.selfTimes = tr.selfTimes()
		ledger, err := layerLedger(w, opt, rep.timing, rep.counts, trials, traced)
		if err != nil {
			return report{}, fmt.Errorf("%s: layer pass: %w", opt.workload, err)
		}
		rep.perLayer = ledger
	}

	if checkErr != nil {
		// A wrong output voids the run: every attempted operation counts
		// as failed and delivered_share reads 0.
		fmt.Fprintf(os.Stderr, "bench: %s: output check failed: %v\n", opt.workload, checkErr)
		rep.correct = false
		rep.failed = rep.attempted
		for i := range rep.endToEnd {
			if rep.endToEnd[i].name == "delivered_share" {
				rep.endToEnd[i].value = 0
			}
		}
	}
	rep.digest = w.digest()
	return rep, nil
}

// printMetadata records where and how the run was made, and warns when
// the box is already busy.
func printMetadata(out io.Writer, opt options) {
	load := loadavg1()
	fmt.Fprintf(out, "# goear bench: workload=%s seed=%d seconds=%d trace=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(out, "# %s %s/%s cpu=%q nproc=%d gomaxprocs=%d gcpercent=100 loadavg1=%.2f\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel(), runtime.NumCPU(), procs, load)
	if load > float64(runtime.NumCPU())-0.5 {
		fmt.Fprintf(out, "# WARNING: loadavg1 %.2f leaves less than half a CPU idle; wall-clock metrics will be noisy\n", load)
	}
}

func printReport(out io.Writer, rep report, traced bool) {
	fmt.Fprintf(out, "# sizes: %s\n", rep.sizes)
	fmt.Fprintf(out, "# work unit: %s; %d timed trials; attempted=%d failed=%d; output digest %016x\n",
		rep.unit, len(rep.trials), rep.attempted, rep.failed, rep.digest)
	for i, t := range rep.trials {
		fmt.Fprintf(out, "# trial %d: wall=%.4fs cpu=%.4fs work=%d allocs=%d bytes=%d\n",
			i+1, t.wallSec, t.cpuSec, t.out.work, t.mallocs, t.bytes)
	}
	for _, m := range rep.endToEnd {
		fmt.Fprintf(out, "%-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	if !traced {
		for _, m := range rep.timing {
			fmt.Fprintf(out, "%-34s %16.6g %s\n", m.name, m.value, m.unit)
		}
	}
	if traced {
		fmt.Fprintln(out, "# per-layer ledger")
		for _, m := range rep.perLayer {
			fmt.Fprintf(out, "%-34s %16.6g %s\n", m.name, m.value, m.unit)
		}
		fmt.Fprintln(out, "# traced trial: self time per span kind")
		for _, st := range rep.selfTimes {
			fmt.Fprintf(out, "#   %-32s n=%-7d self=%.3f ms\n", st.name, st.count, float64(st.selfNS)/1e6)
		}
	} else {
		names := make([]string, 0, len(rep.counts))
		for k := range rep.counts {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(out, "# count %-28s %g\n", k, rep.counts[k])
		}
	}
	fmt.Fprintln(out, resultLine(rep, traced))
}

// resultLine is the machine-readable last line: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func resultLine(rep report, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := rep.endToEnd
	if traced {
		ms = rep.perLayer
	}
	metrics := make(map[string]value, len(ms))
	for _, m := range ms {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		// Only a NaN or infinite metric can fail to encode.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, rep.attempted, rep.attempted)
	}
	return string(line)
}

// loadavg1 is the host's one-minute load average (0 when unreadable).
func loadavg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var v float64
	if _, err := fmt.Sscan(string(b), &v); err != nil {
		return 0
	}
	return v
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
