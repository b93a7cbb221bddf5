package model

import (
	"encoding/json"
	"math"
	"testing"

	"goear/internal/cpu"
	"goear/internal/mem"
	"goear/internal/metrics"
	"goear/internal/perf"
	"goear/internal/power"
)

func trainSD530(t *testing.T) *Model {
	t.Helper()
	m, err := TrainForCPU(
		perf.Machine{CPU: cpu.XeonGold6148(), Mem: mem.DDR4SD530()},
		power.SD530Coeffs())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainProducesValidModel(t *testing.T) {
	m := trainSD530(t)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.PstateCount() != cpu.XeonGold6148().PstateCount() {
		t.Errorf("pstates = %d, want %d", m.PstateCount(), cpu.XeonGold6148().PstateCount())
	}
	// The paper's example: AVX512 pstate is 3 (2.2 GHz) on the 6148.
	if m.AVX512Pstate != 3 {
		t.Errorf("AVX512 pstate = %d, want 3", m.AVX512Pstate)
	}
	if math.Abs(m.FreqGHz[1]-2.4) > 1e-9 {
		t.Errorf("nominal pstate freq = %v, want 2.4", m.FreqGHz[1])
	}
}

func TestIdentityProjectionIsNearExact(t *testing.T) {
	m := trainSD530(t)
	sig := metrics.Signature{IterTimeSec: 1.0, CPI: 0.8, TPI: 0.02, DCPowerW: 330}
	p, err := m.Predict(sig, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.TimeSec-1.0) > 0.02 {
		t.Errorf("identity time = %v, want ~1", p.TimeSec)
	}
	if math.Abs(p.CPI-0.8) > 0.02 {
		t.Errorf("identity CPI = %v, want ~0.8", p.CPI)
	}
	if math.Abs(p.PowerW-330) > 8 {
		t.Errorf("identity power = %v, want ~330", p.PowerW)
	}
}

func TestPredictionsMatchSimulatorAcrossPstates(t *testing.T) {
	// Held-out phases (not in the probe grid): the trained model must
	// predict the simulator's CPI and relative time within a few
	// percent — the fidelity EAR's real learning phase achieves.
	machine := perf.Machine{CPU: cpu.XeonGold6148(), Mem: mem.DDR4SD530()}
	pw := power.SD530Coeffs()
	m := trainSD530(t)

	phases := []struct {
		ph  perf.Phase
		act float64
	}{
		{perf.Phase{BaseCPI: 0.38, BytesPerInstr: 0.8, Overlap: 0.8, ActiveCores: 40}, 1.1},
		{perf.Phase{BaseCPI: 0.9, BytesPerInstr: 4, Overlap: 0.93, ActiveCores: 40}, 0.8},
	}
	for _, tc := range phases {
		fromRatio, _ := machine.CPU.PstateRatio(1)
		r1, err := perf.Evaluate(machine, tc.ph, perf.Operating{CoreRatio: fromRatio, UncoreRatio: 24})
		if err != nil {
			t.Fatal(err)
		}
		b1, err := pw.Node(power.Input{
			CoreFreqGHz: r1.EffCoreFreq.GHzF(), UncoreFreqGHz: 2.4,
			Sockets: 2, ActiveCores: 40, Activity: tc.act, GBs: r1.NodeGBs,
		})
		if err != nil {
			t.Fatal(err)
		}
		sig := metrics.Signature{
			IterTimeSec: 1.0, CPI: r1.CPI,
			TPI: tc.ph.BytesPerInstr / perf.CacheLineBytes,
			GBs: r1.NodeGBs, DCPowerW: b1.Total,
		}
		// Tolerance grows with projection distance: EAR's linear
		// per-pair model is approximate far from the source pstate.
		tols := map[int]float64{2: 0.05, 4: 0.07, 8: 0.12, 12: 0.20}
		for _, to := range []int{2, 4, 8, 12} {
			toRatio, _ := machine.CPU.PstateRatio(to)
			r2, err := perf.Evaluate(machine, tc.ph, perf.Operating{CoreRatio: toRatio, UncoreRatio: 24})
			if err != nil {
				t.Fatal(err)
			}
			pred, err := m.Predict(sig, 1, to)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(pred.CPI-r2.CPI) / r2.CPI; rel > tols[to] {
				t.Errorf("to=%d: CPI prediction off by %.1f%% (%v vs %v)",
					to, rel*100, pred.CPI, r2.CPI)
			}
			trueTimeRatio := r2.SecPerInstr / r1.SecPerInstr
			if rel := math.Abs(pred.TimeSec-trueTimeRatio) / trueTimeRatio; rel > tols[to] {
				t.Errorf("to=%d: time prediction off by %.1f%% (%v vs %v)",
					to, rel*100, pred.TimeSec, trueTimeRatio)
			}
		}
	}
}

func TestAVX512ModelCapsBenefit(t *testing.T) {
	m := trainSD530(t)
	// A pure-AVX512 signature at pstate 3 (the licence): predictions
	// for pstates 1..3 must be identical (no benefit above the
	// licence), and the pre-extension model must (wrongly) predict a
	// speedup — the difference the paper's extension exists to fix.
	sig := metrics.Signature{IterTimeSec: 1.0, CPI: 0.45, TPI: 0.005, DCPowerW: 369, VPI: 1}
	p1, err := m.Predict(sig, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := m.Predict(sig, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1.TimeSec-p3.TimeSec) > 1e-9 {
		t.Errorf("AVX512 prediction differs above licence: %v vs %v", p1.TimeSec, p3.TimeSec)
	}
	d1, err := m.PredictDefault(sig, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d1.TimeSec >= p3.TimeSec {
		t.Errorf("default model should (wrongly) predict speedup above licence: %v vs %v",
			d1.TimeSec, p3.TimeSec)
	}
}

func TestAVX512BlendIsWeighted(t *testing.T) {
	m := trainSD530(t)
	sig := metrics.Signature{IterTimeSec: 1.0, CPI: 0.5, TPI: 0.02, DCPowerW: 340}
	sigHalf := sig
	sigHalf.VPI = 0.5
	pure, err := m.Predict(sig, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sigAvx := sig
	sigAvx.VPI = 1
	avx, err := m.Predict(sigAvx, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	half, err := m.Predict(sigHalf, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := (pure.TimeSec + avx.TimeSec) / 2
	if math.Abs(half.TimeSec-want) > 1e-9 {
		t.Errorf("blended time = %v, want %v", half.TimeSec, want)
	}
}

func TestPredictErrors(t *testing.T) {
	m := trainSD530(t)
	good := metrics.Signature{IterTimeSec: 1, CPI: 0.5, TPI: 0.01, DCPowerW: 300}
	if _, err := m.Predict(good, -1, 0); err == nil {
		t.Error("expected error for negative pstate")
	}
	if _, err := m.Predict(good, 0, m.PstateCount()); err == nil {
		t.Error("expected error for out-of-range target")
	}
	bad := good
	bad.CPI = 0
	if _, err := m.Predict(bad, 0, 1); err == nil {
		t.Error("expected error for zero CPI")
	}
	bad = good
	bad.IterTimeSec = 0
	if _, err := m.PredictDefault(bad, 0, 1); err == nil {
		t.Error("expected error for zero time")
	}
}

func TestTrainErrors(t *testing.T) {
	machine := perf.Machine{CPU: cpu.XeonGold6148(), Mem: mem.DDR4SD530()}
	if _, err := train(machine, power.SD530Coeffs(), DefaultProbes(40)[:2]); err == nil {
		t.Error("expected error for too few probes")
	}
	badM := machine
	badM.CPU.Sockets = 0
	if _, err := TrainForCPU(badM, power.SD530Coeffs()); err == nil {
		t.Error("expected error for invalid machine")
	}
	badP := power.SD530Coeffs()
	badP.PkgBase = -1
	if _, err := TrainForCPU(machine, badP); err == nil {
		t.Error("expected error for invalid power coefficients")
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := trainSD530(t)
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.AVX512Pstate != m.AVX512Pstate || len(back.FreqGHz) != len(m.FreqGHz) {
		t.Error("round trip lost structure")
	}
	if back.Pairs[1][5] != m.Pairs[1][5] {
		t.Error("round trip lost coefficients")
	}
	// Corrupt payload fails validation.
	var bad Model
	if err := json.Unmarshal([]byte(`{"freq_ghz":[],"avx512_pstate":0,"pairs":[]}`), &bad); err == nil {
		t.Error("expected validation error for empty model")
	}
}

func TestValidateRejectsBroken(t *testing.T) {
	m := trainSD530(t)
	cases := []func(*Model){
		func(m *Model) { m.FreqGHz = nil },
		func(m *Model) { m.Pairs = m.Pairs[:3] },
		func(m *Model) { m.Pairs[2] = m.Pairs[2][:1] },
		func(m *Model) { m.AVX512Pstate = -1 },
		func(m *Model) { m.AVX512Pstate = 99 },
		func(m *Model) { m.FreqGHz[0] = 0 },
	}
	for i, mut := range cases {
		c := trainSD530(t)
		mut(c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
		_ = m
	}
}

func TestAVX512PstatePerPlatform(t *testing.T) {
	cases := []struct {
		cpuModel cpu.Model
		want     int
	}{
		{cpu.XeonGold6148(), 3},  // 2.4 nominal, 2.2 licence
		{cpu.XeonGold6142M(), 5}, // 2.6 nominal, 2.2 licence
		{cpu.XeonGold6252(), 6},  // 2.1 nominal, 1.6 licence
	}
	for _, c := range cases {
		m, err := TrainForCPU(
			perf.Machine{CPU: c.cpuModel, Mem: mem.DDR4SD530()},
			power.SD530Coeffs())
		if err != nil {
			t.Fatalf("%s: %v", c.cpuModel.Name, err)
		}
		if m.AVX512Pstate != c.want {
			t.Errorf("%s: AVX512 pstate = %d, want %d", c.cpuModel.Name, m.AVX512Pstate, c.want)
		}
	}
}
