package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"goear/internal/eargm"
	"goear/internal/workload"
)

func pctChange(ref, now float64) float64 { return 100 * (now - ref) / ref }

func TestBaselineReproducesTableII(t *testing.T) {
	// Running every single-node kernel with no policy must reproduce
	// the published Table II characteristics.
	rows := []struct {
		name           string
		time, cpi, gbs float64
		power          float64
	}{
		{workload.BTMZC, 145, 0.39, 28, 332},
		{workload.SPMZC, 264, 0.53, 78, 358},
		{workload.BTCUDA, 465, 0.49, 0.09, 305},
		{workload.LUCUDA, 256, 0.54, 0.19, 290},
		{workload.DGEMM, 160, 0.45, 98, 369},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			cal := calibrated(t, row.name)
			r, err := Run(cal, Options{Policy: "none", Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(r.TimeSec-row.time) > 0.03*row.time {
				t.Errorf("time = %v, want %v", r.TimeSec, row.time)
			}
			if math.Abs(r.AvgCPI-row.cpi) > 0.04*row.cpi {
				t.Errorf("CPI = %v, want %v", r.AvgCPI, row.cpi)
			}
			if row.gbs > 1 && math.Abs(r.AvgGBs-row.gbs) > 0.05*row.gbs {
				t.Errorf("GB/s = %v, want %v", r.AvgGBs, row.gbs)
			}
			if math.Abs(r.AvgPowerW-row.power) > 0.03*row.power {
				t.Errorf("power = %v, want %v", r.AvgPowerW, row.power)
			}
		})
	}
}

func TestMinEnergyLeavesCPUBoundAlone(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	m := platformModel(t, cal.Platform)
	base, err := Run(cal, Options{Policy: "none", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	me, err := Run(cal, Options{Policy: "min_energy", Model: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if me.Nodes[0].FinalCPUPstate != 1 {
		t.Errorf("final pstate = %d, want 1", me.Nodes[0].FinalCPUPstate)
	}
	if p := pctChange(base.TimeSec, me.TimeSec); math.Abs(p) > 0.5 {
		t.Errorf("time penalty = %.2f%%, want ~0", p)
	}
	if p := pctChange(base.EnergyJ, me.EnergyJ); math.Abs(p) > 1 {
		t.Errorf("energy change = %.2f%%, want ~0", p)
	}
}

func TestMinEnergyReducesHPCGLikePaper(t *testing.T) {
	// Paper Table VI: HPCG's average CPU frequency drops to ~1.75 GHz
	// under ME with 5% threshold, saving energy.
	cal := calibrated(t, workload.HPCG)
	m := platformModel(t, cal.Platform)
	base, err := Run(cal, Options{Policy: "none", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	me, err := Run(cal, Options{Policy: "min_energy", Model: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if me.AvgCPUGHz < 1.55 || me.AvgCPUGHz > 2.0 {
		t.Errorf("ME average CPU = %.3f GHz, want ~1.75", me.AvgCPUGHz)
	}
	if p := pctChange(base.EnergyJ, me.EnergyJ); p > -3 {
		t.Errorf("energy change = %.2f%%, want meaningful saving", p)
	}
	if p := pctChange(base.TimeSec, me.TimeSec); p > 8 {
		t.Errorf("time penalty = %.2f%%, want bounded", p)
	}
}

func TestEUFSSavesEnergyOnCPUBound(t *testing.T) {
	// Paper Table III, BT-MZ row: ME+eU saves 7-8% energy at ~1% time
	// penalty by lowering the uncore to ~2.0 GHz.
	cal := calibrated(t, workload.BTMZC)
	m := platformModel(t, cal.Platform)
	base, err := Run(cal, Options{Policy: "none", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eu, err := Run(cal, Options{Policy: "min_energy_eufs", Model: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p := pctChange(base.EnergyJ, eu.EnergyJ); p > -3 || p < -12 {
		t.Errorf("energy change = %.2f%%, want -3%%..-12%% (paper: -7%%)", p)
	}
	if p := pctChange(base.TimeSec, eu.TimeSec); p < 0 || p > 3 {
		t.Errorf("time penalty = %.2f%%, want 0..3%% (paper: 1%%)", p)
	}
	if eu.AvgIMCGHz > 2.2 || eu.AvgIMCGHz < 1.7 {
		t.Errorf("average IMC = %.3f GHz, want ~2.0 (paper: 1.98)", eu.AvgIMCGHz)
	}
	if eu.Nodes[0].FinalUncoreMax >= 24 {
		t.Errorf("final uncore max = %d, want lowered", eu.Nodes[0].FinalUncoreMax)
	}
}

func TestEUFSRespectsUncThreshold(t *testing.T) {
	// With a zero-ish uncore threshold the search must stop almost
	// immediately; with a loose one it goes deeper.
	cal := calibrated(t, workload.SPMZC)
	m := platformModel(t, cal.Platform)
	tight, err := Run(cal, Options{Policy: "min_energy_eufs", Model: m, UncTh: 0.005, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Run(cal, Options{Policy: "min_energy_eufs", Model: m, UncTh: 0.04, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Nodes[0].FinalUncoreMax < loose.Nodes[0].FinalUncoreMax {
		t.Errorf("tight threshold went deeper (%d) than loose (%d)",
			tight.Nodes[0].FinalUncoreMax, loose.Nodes[0].FinalUncoreMax)
	}
	if loose.AvgIMCGHz >= tight.AvgIMCGHz {
		t.Errorf("loose threshold did not lower uncore further: %.3f vs %.3f",
			loose.AvgIMCGHz, tight.AvgIMCGHz)
	}
}

func TestGPUBoundTimeInvariant(t *testing.T) {
	// The paper's CUDA kernels: execution time is GPU-paced, so all
	// policies finish in the same wall time while saving power.
	cal := calibrated(t, workload.BTCUDA)
	m := platformModel(t, cal.Platform)
	base, err := Run(cal, Options{Policy: "none", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"min_energy", "min_energy_eufs"} {
		r, err := Run(cal, Options{Policy: pol, Model: m, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if p := math.Abs(pctChange(base.TimeSec, r.TimeSec)); p > 0.2 {
			t.Errorf("%s: time changed %.3f%%, want 0 (GPU paced)", pol, p)
		}
		if r.EnergyJ >= base.EnergyJ {
			t.Errorf("%s: no energy saving on busy-wait host", pol)
		}
	}
}

func TestFixedUncoreSweepShape(t *testing.T) {
	// Fig. 1's mechanism: pinning the uncore lower monotonically cuts
	// power; time penalty is small for CPU-bound kernels and grows as
	// the uncore starves the memory subsystem.
	cal := calibrated(t, workload.BTMZC)
	ps := 1
	var prevPower float64
	first := true
	for _, ratio := range []uint64{24, 21, 18, 15, 12} {
		res, err := Run(cal, Options{Policy: "none", Seed: 1, FixedCPUPstate: &ps, FixedUncoreRatio: ratio})
		if err != nil {
			t.Fatal(err)
		}
		if !first && res.AvgPowerW >= prevPower {
			t.Errorf("power did not decrease at uncore ratio %d: %v >= %v", ratio, res.AvgPowerW, prevPower)
		}
		prevPower = res.AvgPowerW
		first = false
		// Measured IMC must track the pin.
		want := float64(ratio) / 10 * 0.996
		if math.Abs(res.AvgIMCGHz-want) > 0.05 {
			t.Errorf("ratio %d: measured IMC %.3f, want ~%.3f", ratio, res.AvgIMCGHz, want)
		}
	}
}

// TestPinnedUncoreOutOfRange: a pin outside the machine's uncore range
// is refused at setup rather than clamped by the silicon model. Ratio 0
// is no pin: the hardware UFS range stays open.
func TestPinnedUncoreOutOfRange(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	for _, ratio := range []uint64{1, 11, 25, 30} {
		_, err := Run(cal, Options{Policy: "none", Seed: 1, FixedUncoreRatio: ratio})
		if err == nil || !strings.Contains(err.Error(), "[12, 24]") {
			t.Errorf("ratio %d: err = %v, want an error naming [12, 24]", ratio, err)
		}
	}
}

func TestPhaseChangeTriggersPolicyReapplication(t *testing.T) {
	cal := calibrated(t, workload.PhaseChange)
	m := platformModel(t, cal.Platform)
	r, err := Run(cal, Options{Policy: "min_energy", Model: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The second (memory-bound) phase must re-trigger the policy and
	// end at a reduced pstate.
	if r.Nodes[0].PolicyApplies < 2 {
		t.Errorf("policy applied %d times, want >= 2 (phase change)", r.Nodes[0].PolicyApplies)
	}
	if r.Nodes[0].FinalCPUPstate <= 1 {
		t.Errorf("final pstate = %d, want reduced for the memory phase", r.Nodes[0].FinalCPUPstate)
	}
}

func TestMultiNodeConsistency(t *testing.T) {
	cal := calibrated(t, workload.BQCD)
	m := platformModel(t, cal.Platform)
	r, err := Run(cal, Options{Policy: "min_energy_eufs", Model: m, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(r.Nodes))
	}
	for i, n := range r.Nodes {
		if d := math.Abs(pctChange(r.AvgPowerW, n.AvgPowerW)); d > 2 {
			t.Errorf("node %d power deviates %.2f%% from mean", i, d)
		}
		if !n.LoopDetected {
			t.Errorf("node %d: Dynais found no loop in an MPI app", i)
		}
	}
	// Cluster time is the slowest node.
	var maxT float64
	for _, n := range r.Nodes {
		maxT = math.Max(maxT, n.TimeSec)
	}
	if r.TimeSec != maxT {
		t.Errorf("cluster time %v != slowest node %v", r.TimeSec, maxT)
	}
}

func TestDeterminism(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	m := platformModel(t, cal.Platform)
	a, err := Run(cal, Options{Policy: "min_energy_eufs", Model: m, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cal, Options{Policy: "min_energy_eufs", Model: m, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeSec != b.TimeSec || a.EnergyJ != b.EnergyJ || a.AvgIMCGHz != b.AvgIMCGHz {
		t.Error("same seed produced different results")
	}
	c, err := Run(cal, Options{Policy: "min_energy_eufs", Model: m, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a.TimeSec == c.TimeSec && a.EnergyJ == c.EnergyJ {
		t.Error("different seeds produced identical results (noise missing)")
	}
}

func TestRunAveraged(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	r, err := RunAveraged(&cal, Options{Policy: "none", Seed: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.TimeSec-145) > 5 {
		t.Errorf("averaged time = %v", r.TimeSec)
	}
	if _, err := RunAveraged(&cal, Options{}, 0); err == nil {
		t.Error("expected error for zero runs")
	}
}

// One averaged run is the run itself: every average is (0 + x) / 1.
func TestRunAveragedOneRunIsRun(t *testing.T) {
	cal := calibrated(t, workload.HPCG)
	m := platformModel(t, cal.Platform)
	for _, pol := range []string{"none", "min_energy_eufs"} {
		for _, workers := range []int{1, 2} {
			opt := Options{Policy: pol, Model: m, Seed: 5, Workers: workers}
			want, err := Run(cal, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunAveraged(&cal, opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, workers %d: RunAveraged(1) differs from Run", pol, workers)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	if _, err := Run(cal, Options{Policy: "min_energy"}); err == nil {
		t.Error("expected error for missing model")
	}
	m := platformModel(t, cal.Platform)
	if _, err := Run(cal, Options{Policy: "no_such_policy", Model: m}); err == nil {
		t.Error("expected error for unknown policy")
	}
}

// TestModelForAnotherPlatformIsRefused holds every way into a run to
// one check: a model trained on Cascade Lake (2.4 GHz turbo) does not
// run SD530's BT-MZ.C (2.6 GHz turbo), and the error names both. The
// check allocates nothing when the model fits.
func TestModelForAnotherPlatformIsRefused(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	opt := Options{Policy: "min_energy_eufs", Model: platformModel(t, workload.CascadeLake())}
	gm, err := eargm.New(eargm.Config{BudgetW: 1000, MaxCapPstate: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range []struct {
		name string
		run  func() error
	}{
		{"Run", func() error { _, err := Run(cal, opt); return err }},
		{"NewBatch", func() error { _, err := NewBatch(cal, opt); return err }},
		{"RunCoordinated", func() error { _, err := RunCoordinated(cal, opt, gm); return err }},
		{"NewStepper", func() error { _, err := NewStepper(cal, 0, opt); return err }},
	} {
		err := entry.run()
		if err == nil {
			t.Errorf("%s ran a Cascade Lake model on SD530", entry.name)
			continue
		}
		for _, want := range []string{"SD530", "2.4 GHz turbo", "2.6 GHz turbo"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", entry.name, err, want)
			}
		}
	}

	opt.Model = platformModel(t, cal.Platform)
	if n := testing.AllocsPerRun(100, func() {
		if err := checkModel(cal, opt); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("checkModel allocates %v times on a fitting model", n)
	}
}

func TestUncoreWindowNeverExceedsHardware(t *testing.T) {
	// Whatever the policy does, the final MSR window must stay inside
	// the hardware range on every node.
	for _, name := range []string{workload.BTMZC, workload.HPCG, workload.BTCUDA} {
		cal := calibrated(t, name)
		m := platformModel(t, cal.Platform)
		r, err := Run(cal, Options{Policy: "min_energy_eufs", Model: m, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		hw := cal.Platform.Machine.CPU
		for i, n := range r.Nodes {
			if n.FinalUncoreMax < hw.UncoreMinRatio || n.FinalUncoreMax > hw.UncoreMaxRatio {
				t.Errorf("%s node %d: final uncore max %d outside [%d,%d]",
					name, i, n.FinalUncoreMax, hw.UncoreMinRatio, hw.UncoreMaxRatio)
			}
		}
	}
}

func TestTraceRecording(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	m := platformModel(t, cal.Platform)
	r, err := Run(cal, Options{Policy: "min_energy_eufs", Model: m, Seed: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := r.Nodes[0].Trace
	// ~145 simulated seconds at 1 Hz.
	if len(tr) < 130 || len(tr) > 160 {
		t.Fatalf("trace samples = %d, want ~145", len(tr))
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].TimeSec <= tr[i-1].TimeSec {
			t.Fatal("trace time not increasing")
		}
	}
	// Early samples run at the full uncore window; late ones show the
	// settled eUFS ceiling.
	if tr[5].UncMax != 24 {
		t.Errorf("early uncore ceiling = %d, want 24", tr[5].UncMax)
	}
	last := tr[len(tr)-1]
	if last.UncMax >= 24 {
		t.Errorf("final uncore ceiling = %d, want lowered", last.UncMax)
	}
	if last.PowerW >= tr[5].PowerW {
		t.Errorf("power did not drop along the trace: %.1f -> %.1f", tr[5].PowerW, last.PowerW)
	}
	// Without the option no trace is recorded.
	r2, err := Run(cal, Options{Policy: "none", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Nodes[0].Trace != nil {
		t.Error("trace recorded without Options.Trace")
	}
}

func TestNestedLoopDetectionInSimulation(t *testing.T) {
	// BQCD emits a nested structure (3 passes of a 4-call solver loop
	// per outer step); Dynais must lock the inner loop at level 0 and
	// the outer structure at level 1.
	cal := calibrated(t, workload.BQCD)
	m := platformModel(t, cal.Platform)
	r, err := Run(cal, Options{Policy: "min_energy", Model: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n0 := r.Nodes[0]
	if !n0.LoopDetected {
		t.Fatal("inner loop not detected")
	}
	if n0.NestedLevel < 1 {
		t.Errorf("nested level = %d, want >= 1 (outer structure)", n0.NestedLevel)
	}
	if n0.NestedPeriod < 1 {
		t.Errorf("nested period = %d", n0.NestedPeriod)
	}
}

func TestPoliciesRunOnCascadeLake(t *testing.T) {
	// The whole pipeline on a second CPU generation: calibrate a spec,
	// train its model, and let the eUFS policy harvest the uncore.
	f := workload.Template()
	f.Name = "clx-app"
	f.Platform = "CascadeLake"
	f.ActiveCores = 48
	f.ProcsPerNode = 48
	f.DefaultSegment.TargetPowerW = 360 // 48 busy cores draw more
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	cal, err := spec.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	m := platformModel(t, cal.Platform)
	base, err := Run(cal, Options{Policy: "none", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base.AvgCPUGHz-2.1*0.992) > 0.02 {
		t.Errorf("nominal avg CPU = %.3f GHz, want ~2.08", base.AvgCPUGHz)
	}
	eu, err := Run(cal, Options{Policy: "min_energy_eufs", Model: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eu.EnergyJ >= base.EnergyJ {
		t.Error("eUFS saved nothing on Cascade Lake")
	}
	if eu.AvgIMCGHz >= base.AvgIMCGHz {
		t.Error("uncore not lowered on Cascade Lake")
	}
}
