// Benchmarks regenerating every table and figure of the paper's
// evaluation section, one testing.B benchmark per artifact, plus
// micro-benchmarks of the simulator's hot paths.
//
// Each experiment benchmark re-runs the full simulation campaign behind
// that artifact (models and workload calibrations are shared across
// iterations; runs are not). Benchmarks use the single-run protocol;
// cmd/benchtables regenerates the same artifacts with the paper's
// three-run averaging.
package goear

import (
	"runtime"
	"sync"
	"testing"

	"goear/internal/cpu"
	"goear/internal/dynais"
	"goear/internal/experiments"
	"goear/internal/mem"
	"goear/internal/metrics"
	"goear/internal/model"
	"goear/internal/par"
	"goear/internal/perf"
	"goear/internal/power"
	"goear/internal/sim"
	"goear/internal/telemetry"
	"goear/internal/workload"
)

var (
	benchOnce sync.Once
	benchBase *experiments.Context
)

// benchContext returns a warm base context: models trained, workloads
// calibrated. Each benchmark iteration derives a fresh run cache from
// it so the simulations themselves are measured.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchBase = experiments.NewQuick()
		// Touch both platforms so model training happens here, not
		// inside the timed region.
		if _, err := benchBase.Generate("table2"); err != nil {
			panic(err)
		}
	})
	return benchBase
}

func benchExperiment(b *testing.B, id string) {
	base := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewFrom(base)
		if _, err := ctx.Generate(id); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkFig3(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkSummary(b *testing.B) { benchExperiment(b, "summary") }

// Ablation benchmarks (DESIGN.md A1-A5; the whole suite in one, and the
// individually named ones for the design choices §V-B calls out).

func BenchmarkAblations(b *testing.B)  { benchExperiment(b, "ablations") }
func BenchmarkBaselines(b *testing.B)  { benchExperiment(b, "baselines") }
func BenchmarkFutureWork(b *testing.B) { benchExperiment(b, "future_work") }

// Scheduler benchmarks: the whole evaluation campaign end to end,
// sequential versus the bounded worker pool. On a machine with >= 4
// cores the parallel variant is expected to finish the campaign at
// least twice as fast; the output is byte-identical either way.

func benchExpAll(b *testing.B, parallel int) {
	base := benchContext(b)
	ids := experiments.IDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewFrom(base)
		ctx.Parallel = parallel
		if err := par.ForEach(parallel, len(ids), func(j int) error {
			_, err := ctx.Generate(ids[j])
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpAllSequential(b *testing.B) { benchExpAll(b, 1) }

func BenchmarkExpAllParallel(b *testing.B) {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		b.Skip("needs >= 2 CPUs to exercise the worker pool")
	}
	benchExpAll(b, n)
}

func benchOneRun(b *testing.B, name string, opt sim.Options) {
	base := benchContext(b)
	cal := mustCal(b, name)
	if opt.Policy != "" && opt.Policy != "none" {
		ctx := experiments.NewFrom(base)
		r, err := ctx.Run(name, sim.Options{Policy: "none", Seed: 1})
		_ = r
		if err != nil {
			b.Fatal(err)
		}
		m, err := model.TrainForCPU(cal.Platform.Machine, cal.Platform.Power)
		if err != nil {
			b.Fatal(err)
		}
		opt.Model = m
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cal, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func mustCal(b *testing.B, name string) workload.Calibrated {
	b.Helper()
	spec, err := workload.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	cal, err := spec.Calibrate()
	if err != nil {
		b.Fatal(err)
	}
	return cal
}

func BenchmarkAblationSearch(b *testing.B) {
	benchOneRun(b, workload.BTCUDA, sim.Options{Policy: "min_energy_eufs", HWGuidedOff: true, Seed: 1})
}

func BenchmarkAblationAVX512(b *testing.B) {
	benchOneRun(b, workload.DGEMM, sim.Options{Policy: "min_energy", NoAVX512Model: true, Seed: 1})
}

func BenchmarkAblationRatioMode(b *testing.B) {
	benchOneRun(b, workload.BTMZC, sim.Options{Policy: "min_energy_eufs", PinBothUncoreLimits: true, Seed: 1})
}

func BenchmarkAblationSigChange(b *testing.B) {
	benchOneRun(b, workload.PhaseChange, sim.Options{Policy: "min_energy_eufs", SigChangeTh: 0.10, Seed: 1})
}

// Hot-path micro-benchmarks.

func BenchmarkPerfEvaluate(b *testing.B) {
	m := perf.Machine{CPU: cpu.XeonGold6148(), Mem: mem.DDR4SD530()}
	p := perf.Phase{BaseCPI: 0.8, BytesPerInstr: 3, Overlap: 0.92, ActiveCores: 40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := perf.Evaluate(m, p, perf.Operating{CoreRatio: 24, UncoreRatio: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelPredict(b *testing.B) {
	m, err := model.TrainForCPU(
		perf.Machine{CPU: cpu.XeonGold6148(), Mem: mem.DDR4SD530()},
		power.SD530Coeffs())
	if err != nil {
		b.Fatal(err)
	}
	sig := metrics.Signature{IterTimeSec: 1, CPI: 0.8, TPI: 0.02, GBs: 40, DCPowerW: 330, VPI: 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(sig, 1, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelTrain(b *testing.B) {
	machine := perf.Machine{CPU: cpu.XeonGold6148(), Mem: mem.DDR4SD530()}
	pw := power.SD530Coeffs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.TrainForCPU(machine, pw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynaisPush(b *testing.B) {
	d, err := dynais.New(64)
	if err != nil {
		b.Fatal(err)
	}
	pattern := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(pattern[i%len(pattern)])
	}
}

func benchSimSecond(b *testing.B, telemetryOn bool) {
	// One simulated node-second of BT-MZ.C per iteration (policy off).
	opt := sim.Options{Policy: "none"}
	if telemetryOn {
		opt.Telemetry = telemetry.NewSet()
	}
	spec, err := workload.Lookup(workload.BTMZC)
	if err != nil {
		b.Fatal(err)
	}
	spec.TargetTimeSec = 1.2 // one iteration
	cal, err := spec.Calibrate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i)
		if _, err := sim.Run(cal, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimSecond(b *testing.B) { benchSimSecond(b, false) }

// BenchmarkSimSecondTelemetry is BenchmarkSimSecond with a telemetry
// set passed in the options; the delta against the plain benchmark is the
// enabled-instrumentation overhead (DESIGN.md §9).
func BenchmarkSimSecondTelemetry(b *testing.B) { benchSimSecond(b, true) }

// benchNodeTick measures one pass of the simulator's inner loop —
// tick, perf evaluation, dynais, EARL — in isolation via sim.Stepper,
// the per-step cost every experiment above pays millions of times.
func benchNodeTick(b *testing.B, telemetryOn bool) {
	cal := mustCal(b, workload.BTMZC)
	opt := sim.Options{Policy: "none", Seed: 1}
	if telemetryOn {
		opt.Telemetry = telemetry.NewSet()
	}
	s, err := sim.NewStepper(cal, 0, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Done() {
			b.StopTimer()
			if s, err = sim.NewStepper(cal, 0, opt); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodeTick(b *testing.B) { benchNodeTick(b, false) }

// BenchmarkNodeTickTelemetry is BenchmarkNodeTick with a telemetry set
// passed in the options (per-step counting is node-local and flushed
// once per run, so the expected delta is ~zero).
func BenchmarkNodeTickTelemetry(b *testing.B) { benchNodeTick(b, true) }

// Batch stepping benchmarks: sim.Batch, the lock-step driver cluster
// campaigns run on, measured over a 1024-node shard. BenchmarkBatchTick
// is one 10 ms tick of the whole shard (the ns/node-tick metric is the
// per-node cost to compare with BenchmarkNodeTick, which never arms);
// BenchmarkClusterSecond advances the shard one simulated second, and
// BenchmarkClusterSecondReference does the same through stepOnce-only
// Steppers — the ratio is what armed replay saves.

const batchBenchNodes = 1024

func benchBatch(b *testing.B) *sim.Batch {
	b.Helper()
	cal := mustCal(b, workload.BTMZC)
	bt, err := sim.NewBatch(cal, sim.Options{Policy: "none", Seed: 1})
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

func BenchmarkBatchTick(b *testing.B) {
	bt := benchBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bt.Done() {
			b.StopTimer()
			bt = benchBatch(b)
			b.StartTimer()
		}
		if err := bt.Tick(0.01); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/batchBenchNodes, "ns/node-tick")
}

func BenchmarkClusterSecond(b *testing.B) {
	bt := benchBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bt.Done() {
			b.StopTimer()
			bt = benchBatch(b)
			b.StartTimer()
		}
		if err := bt.Tick(1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterSecondReference(b *testing.B) {
	cal := mustCal(b, workload.BTMZC)
	opt := sim.Options{Policy: "none", Seed: 1}
	build := func() []*sim.Stepper {
		ss := make([]*sim.Stepper, batchBenchNodes)
		for i := range ss {
			s, err := sim.NewStepper(cal, i, opt)
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

// Trace on/off pair: the delta is the cost of 1 Hz trace
// sampling, the off case is the production configuration.

func benchTraceRun(b *testing.B, trace bool) {
	spec, err := workload.Lookup(workload.BTMZC)
	if err != nil {
		b.Fatal(err)
	}
	spec.TargetTimeSec = 1.2 // one iteration, as BenchmarkSimSecond
	cal, err := spec.Calibrate()
	if err != nil {
		b.Fatal(err)
	}
	opt := sim.Options{Policy: "none", Seed: 1, Trace: trace}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cal, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceOff(b *testing.B) { benchTraceRun(b, false) }
func BenchmarkTraceOn(b *testing.B)  { benchTraceRun(b, true) }
