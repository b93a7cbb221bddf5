package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// scenario is one fixed-work benchmark scenario. The harness owns
// timing and statistics; a workload owns its inputs, its per-trial
// state and its output checks, and touches the system only through
// exported functions of internal/*.
type scenario interface {
	// setup generates every input from the seed and builds what a trial
	// needs (fleet, root, manager / calibration, model). It is timed as
	// setup_s and may be called repeatedly; each call replaces the
	// previous state.
	setup() error
	// prepare rebuilds per-trial state (a fresh fleet, a cold root) so
	// every trial does identical work. Untimed.
	prepare() error
	// run executes one trial: the timed region. Spans are recorded
	// under parent when tr is live.
	run(tr *tracer, parent int) (trialOut, error)
	// verify checks the outputs of the trial that just ran against an
	// independent reference. Untimed.
	verify() error
	// counts returns the exact layer counts of the last trial (names
	// as in BENCHMARK.json per_layer).
	counts() map[string]float64
	// digest is a checksum of the last verified output: equal for
	// equal seeds, different when the seed changes the inputs.
	digest() uint64
	// unit names the work unit of work_per_s.
	unit() string
	// describe reports the input sizes for the run metadata.
	describe() string
	close() error
}

// trialOut is what one trial reports back to the harness.
type trialOut struct {
	work      int       // work units completed
	attempted int       // operations attempted
	failed    int       // operations failed, refused or left undelivered
	latUS     []float64 // per-operation latencies in µs
}

// trialStats is one measured trial. The raw latency samples are
// reduced to two percentiles and dropped at once: kept, they would grow
// the harness's own heap with the trial count and show in live_heap_mb.
type trialStats struct {
	wallSec    float64
	cpuSec     float64
	mallocs    uint64
	bytes      uint64
	out        trialOut // latUS cleared
	latP50US   float64
	latP99US   float64
	latSamples int
}

// rusage reads the process's resource usage (zero when unreadable).
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's high-water resident set.
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// measure runs one trial of w between a forced GC and a MemStats read,
// so allocation deltas belong to the trial alone.
func measure(w scenario, tr *tracer, trial int) (trialStats, error) {
	if err := w.prepare(); err != nil {
		return trialStats{}, fmt.Errorf("prepare: %w", err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if tr != nil {
		tr.trial = trial
	}
	sp := tr.start("trial", 0)
	c0 := cpuSeconds()
	t0 := time.Now()
	out, err := w.run(tr, sp)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return trialStats{}, fmt.Errorf("trial: %w", err)
	}
	if out.work < 1 {
		return trialStats{}, fmt.Errorf("trial completed no work")
	}
	ts := trialStats{
		wallSec:    wall,
		cpuSec:     cpu,
		mallocs:    m1.Mallocs - m0.Mallocs,
		bytes:      m1.TotalAlloc - m0.TotalAlloc,
		latSamples: len(out.latUS),
	}
	sort.Float64s(out.latUS)
	ts.latP50US, ts.latP99US = quantile(out.latUS, 0.5), quantile(out.latUS, 0.99)
	out.latUS = nil
	ts.out = out
	return ts, nil
}

// liveHeapMiB is the heap still reachable after collection. Two
// cycles, because sync.Pool contents survive the first in the victim
// cache and would otherwise add a few MiB of timing-dependent garbage.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// median returns the middle of xs (mean of the two middles for even
// lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// quartiles returns Q1, median and Q3 by the exclusive method Python's
// statistics.quantiles(xs, n=4) uses, so the -aa table reads the same
// spread the acceptance check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd reduces the timed trials to the gated metrics — each
// per-trial figure the median over trials — and to the three timing
// figures, which this box is too loud to gate (README: "Why no time
// metric is gated") and which the ledger carries instead.
func endToEnd(setupSec []float64, trials []trialStats, liveMiB float64) (gated, timing []metric) {
	var perS, cpuUS, allocs, bytes, lat []float64
	attempted, failed := 0, 0
	for _, t := range trials {
		w := float64(t.out.work)
		perS = append(perS, w/t.wallSec)
		cpuUS = append(cpuUS, t.cpuSec*1e6/w)
		allocs = append(allocs, float64(t.mallocs)/w)
		bytes = append(bytes, float64(t.bytes)/w)
		lat = append(lat, t.latP50US)
		attempted += t.out.attempted
		failed += t.out.failed
	}
	delivered := 0.0
	if attempted > 0 {
		delivered = 1 - float64(failed)/float64(attempted)
	}
	gated = []metric{
		{"setup_s", median(setupSec), "s"},
		{"allocs_per_work", median(allocs), "allocs"},
		{"alloc_bytes_per_work", median(bytes), "B"},
		{"live_heap_mb", liveMiB, "MiB"},
		{"delivered_share", delivered, "ratio"},
	}
	timing = []metric{
		{"time.work_per_s", median(perS), "1/s"},
		{"time.cpu_us_per_work", median(cpuUS), "us"},
		{"time.latency_p50_us", median(lat), "us"},
	}
	return gated, timing
}

// trialIQRRel is the interquartile range of the trials' wall times as
// a share of their median: the within-run noise figure.
func trialIQRRel(trials []trialStats) float64 {
	ws := make([]float64, len(trials))
	for i, t := range trials {
		ws[i] = t.wallSec
	}
	q1, q2, q3 := quartiles(ws)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
