package sim

import (
	"testing"

	"goear/internal/telemetry"
	"goear/internal/workload"
)

// Probes of the simulator's hot paths, for reading only: the exact
// allocation counts behind them are tier-1 tests (perf_test.go).

// benchOneIteration runs BT-MZ.C cut to one iteration, one simulated
// node-second, per benchmark iteration, a new seed each time.
func benchOneIteration(b *testing.B, opt Options) {
	spec, err := workload.Lookup(workload.BTMZC)
	if err != nil {
		b.Fatal(err)
	}
	spec.TargetTimeSec = 1.2
	cal, err := spec.Calibrate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i)
		if _, err := Run(cal, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimSecond(b *testing.B) { benchOneIteration(b, Options{Policy: "none"}) }

// BenchmarkSimSecondTelemetry is BenchmarkSimSecond with a telemetry
// set passed in the options; the delta against the plain benchmark is the
// enabled-instrumentation overhead (DESIGN.md §9).
func BenchmarkSimSecondTelemetry(b *testing.B) {
	benchOneIteration(b, Options{Policy: "none", Telemetry: telemetry.NewSet()})
}

// Trace on/off pair: the delta is the cost of 1 Hz trace
// sampling, the off case is the production configuration. TraceOff runs
// what SimSecond runs; it keeps the pair together under `-bench Trace`.

func BenchmarkTraceOff(b *testing.B) { benchOneIteration(b, Options{Policy: "none"}) }
func BenchmarkTraceOn(b *testing.B)  { benchOneIteration(b, Options{Policy: "none", Trace: true}) }

// benchNodeTick measures one pass of the simulator's inner loop —
// tick, perf evaluation, dynais, EARL — in isolation via Stepper,
// the per-step cost every run pays millions of times.
func benchNodeTick(b *testing.B, opt Options) {
	cal := calibrated(b, workload.BTMZC)
	s, err := NewStepper(cal, 0, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Done() {
			b.StopTimer()
			if s, err = NewStepper(cal, 0, opt); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodeTick(b *testing.B) { benchNodeTick(b, Options{Policy: "none", Seed: 1}) }

// BenchmarkNodeTickTelemetry is BenchmarkNodeTick with a telemetry set
// passed in the options (per-step counting is node-local and flushed
// once per run, so the expected delta is ~zero).
func BenchmarkNodeTickTelemetry(b *testing.B) {
	benchNodeTick(b, Options{Policy: "none", Seed: 1, Telemetry: telemetry.NewSet()})
}

// Batch stepping benchmarks: Batch, the lock-step driver cluster
// campaigns run on, measured over a 1024-node shard. BenchmarkBatchTick
// is one 10 ms tick of the whole shard (the ns/node-tick metric is the
// per-node cost to compare with BenchmarkNodeTick, which never arms).
// Every armed node moves a one-tick span there, solved in closed form
// like a span of any length, so it measures a span's fixed cost; Run
// and RunCoordinated never step one tick per call.
// BenchmarkClusterSecond advances the shard one simulated second, and
// BenchmarkClusterSecondReference does the same through stepOnce-only
// Steppers — the ratio is what armed replay saves.

const batchBenchNodes = 1024

func benchBatch(b *testing.B) *Batch {
	b.Helper()
	bt, err := NewBatch(calibrated(b, workload.BTMZC), Options{Policy: "none", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for id := 0; id < batchBenchNodes; id++ {
		if _, err := bt.Add(id); err != nil {
			b.Fatal(err)
		}
	}
	return bt
}

// benchBatchTicks advances a fresh shard dt simulated seconds a call.
func benchBatchTicks(b *testing.B, dt float64) {
	bt := benchBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bt.Done() {
			b.StopTimer()
			bt = benchBatch(b)
			b.StartTimer()
		}
		if err := bt.Tick(dt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchTick(b *testing.B) {
	benchBatchTicks(b, stepSec)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batchBenchNodes, "ns/node-tick")
}

func BenchmarkClusterSecond(b *testing.B) { benchBatchTicks(b, 1.0) }

func BenchmarkClusterSecondReference(b *testing.B) {
	cal := calibrated(b, workload.BTMZC)
	opt := Options{Policy: "none", Seed: 1}
	build := func() []*Stepper {
		ss := make([]*Stepper, batchBenchNodes)
		for i := range ss {
			s, err := NewStepper(cal, i, opt)
			if err != nil {
				b.Fatal(err)
			}
			ss[i] = s
		}
		return ss
	}
	// One simulated second is a hundred of the simulator's 10 ms steps
	// (an iteration's last step may be shorter).
	const stepsPerSecond = 100
	steppers := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := true
		for _, s := range steppers {
			if !s.Done() {
				done = false
				break
			}
		}
		if done {
			b.StopTimer()
			steppers = build()
			b.StartTimer()
		}
		for _, s := range steppers {
			for k := 0; k < stepsPerSecond && !s.Done(); k++ {
				if err := s.Step(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
