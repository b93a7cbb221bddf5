package perf

import (
	"math"
	"testing"
	"testing/quick"

	"goear/internal/cpu"
	"goear/internal/mem"
	"goear/internal/units"
)

func machine6148() Machine {
	return Machine{CPU: cpu.XeonGold6148(), Mem: mem.DDR4SD530()}
}

func cpuBoundPhase() Phase {
	return Phase{BaseCPI: 0.38, BytesPerInstr: 0.15, VPI: 0, Overlap: 0.7, ActiveCores: 40}
}

func memBoundPhase() Phase {
	return Phase{BaseCPI: 0.8, BytesPerInstr: 6, VPI: 0, Overlap: 0.95, ActiveCores: 40}
}

func TestMachineValidate(t *testing.T) {
	if err := machine6148().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := machine6148()
	bad.CPU.Sockets = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected CPU validation error")
	}
	bad = machine6148()
	bad.Mem.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected memory validation error")
	}
}

func TestPhaseValidate(t *testing.T) {
	good := cpuBoundPhase()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Phase){
		func(p *Phase) { p.BaseCPI = 0 },
		func(p *Phase) { p.BytesPerInstr = -1 },
		func(p *Phase) { p.VPI = 1.1 },
		func(p *Phase) { p.VPI = -0.1 },
		func(p *Phase) { p.Overlap = 1 },
		func(p *Phase) { p.Overlap = -0.1 },
		func(p *Phase) { p.ActiveCores = 0 },
	}
	for i, mut := range muts {
		p := good
		mut(&p)
		if err := p.validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

func TestEvaluateCPUBoundInsensitiveToUncore(t *testing.T) {
	m := machine6148()
	p := cpuBoundPhase()
	hi, err := Evaluate(m, p, Operating{CoreRatio: 24, UncoreRatio: 24})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Evaluate(m, p, Operating{CoreRatio: 24, UncoreRatio: 12})
	if err != nil {
		t.Fatal(err)
	}
	penalty := (lo.SecPerInstr - hi.SecPerInstr) / hi.SecPerInstr
	if penalty < 0 {
		t.Errorf("lower uncore cannot speed up execution: %v", penalty)
	}
	if penalty > 0.10 {
		t.Errorf("CPU-bound phase lost %.1f%% from uncore 2.4->1.2, want < 10%%", penalty*100)
	}
}

func TestEvaluateMemBoundSensitiveToUncore(t *testing.T) {
	m := machine6148()
	p := memBoundPhase()
	hi, err := Evaluate(m, p, Operating{CoreRatio: 24, UncoreRatio: 24})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Evaluate(m, p, Operating{CoreRatio: 24, UncoreRatio: 12})
	if err != nil {
		t.Fatal(err)
	}
	penalty := (lo.SecPerInstr - hi.SecPerInstr) / hi.SecPerInstr
	if penalty < 0.15 {
		t.Errorf("memory-bound phase lost only %.1f%% from uncore 2.4->1.2, want > 15%%", penalty*100)
	}
	// Bandwidth must shrink too.
	if lo.NodeGBs >= hi.NodeGBs {
		t.Errorf("GB/s did not drop: %v -> %v", hi.NodeGBs, lo.NodeGBs)
	}
	// And measured CPI must rise (the paper's LU observation).
	if lo.CPI <= hi.CPI {
		t.Errorf("CPI did not rise: %v -> %v", hi.CPI, lo.CPI)
	}
}

func TestEvaluateTimeScalesWithCoreFreq(t *testing.T) {
	m := machine6148()
	p := cpuBoundPhase()
	f24, err := Evaluate(m, p, Operating{CoreRatio: 24, UncoreRatio: 24})
	if err != nil {
		t.Fatal(err)
	}
	f12, err := Evaluate(m, p, Operating{CoreRatio: 12, UncoreRatio: 24})
	if err != nil {
		t.Fatal(err)
	}
	ratio := f12.SecPerInstr / f24.SecPerInstr
	// A CPU-bound phase at half frequency takes close to 2x (slightly
	// less because the memory component does not scale).
	if ratio < 1.7 || ratio > 2.05 {
		t.Errorf("half-frequency slowdown = %vx, want ~2x", ratio)
	}
}

func TestEvaluateMonotonicInCoreFreqProperty(t *testing.T) {
	m := machine6148()
	for _, p := range []Phase{cpuBoundPhase(), memBoundPhase()} {
		fn := func(a, b uint8) bool {
			ra := uint64(a%15) + 10
			rb := uint64(b%15) + 10
			if ra > rb {
				ra, rb = rb, ra
			}
			lo, err1 := Evaluate(m, p, Operating{CoreRatio: ra, UncoreRatio: 24})
			hi, err2 := Evaluate(m, p, Operating{CoreRatio: rb, UncoreRatio: 24})
			if err1 != nil || err2 != nil {
				return false
			}
			return hi.SecPerInstr <= lo.SecPerInstr*(1+1e-9)
		}
		if err := quick.Check(fn, nil); err != nil {
			t.Error(err)
		}
	}
}

func TestEvaluateMonotonicInUncoreFreqProperty(t *testing.T) {
	m := machine6148()
	for _, p := range []Phase{cpuBoundPhase(), memBoundPhase()} {
		fn := func(a, b uint8) bool {
			ra := uint64(a%13) + 12
			rb := uint64(b%13) + 12
			if ra > rb {
				ra, rb = rb, ra
			}
			lo, err1 := Evaluate(m, p, Operating{CoreRatio: 24, UncoreRatio: ra})
			hi, err2 := Evaluate(m, p, Operating{CoreRatio: 24, UncoreRatio: rb})
			if err1 != nil || err2 != nil {
				return false
			}
			return hi.SecPerInstr <= lo.SecPerInstr*(1+1e-9)
		}
		if err := quick.Check(fn, nil); err != nil {
			t.Error(err)
		}
	}
}

func TestEffectiveCoreFreqAVX512(t *testing.T) {
	m := cpu.XeonGold6148()
	// Pure AVX512 at nominal runs at the 2.2 GHz licence.
	f := effectiveCoreFreq(m, 1.0, 24)
	if math.Abs(f.GHzF()-2.2) > 1e-9 {
		t.Errorf("VPI=1 freq = %v, want 2.2GHz", f)
	}
	// No AVX512: nominal.
	f = effectiveCoreFreq(m, 0, 24)
	if math.Abs(f.GHzF()-2.4) > 1e-9 {
		t.Errorf("VPI=0 freq = %v, want 2.4GHz", f)
	}
	// Half: blended.
	f = effectiveCoreFreq(m, 0.5, 24)
	if math.Abs(f.GHzF()-2.3) > 1e-9 {
		t.Errorf("VPI=0.5 freq = %v, want 2.3GHz", f)
	}
	// Below the licence, VPI does not matter.
	f = effectiveCoreFreq(m, 1.0, 20)
	if math.Abs(f.GHzF()-2.0) > 1e-9 {
		t.Errorf("VPI=1 at 2.0GHz = %v, want 2.0GHz", f)
	}
}

func TestEvaluateAVX512PhaseUnaffectedByHigherRequest(t *testing.T) {
	// The paper's DGEMM case: with VPI=1, requesting nominal or the
	// licence frequency must give the same execution rate.
	m := machine6148()
	p := Phase{BaseCPI: 0.45, BytesPerInstr: 2.8, VPI: 1, Overlap: 0.9, ActiveCores: 40}
	at24, err := Evaluate(m, p, Operating{CoreRatio: 24, UncoreRatio: 20})
	if err != nil {
		t.Fatal(err)
	}
	at22, err := Evaluate(m, p, Operating{CoreRatio: 22, UncoreRatio: 20})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(at24.SecPerInstr-at22.SecPerInstr) > 1e-15 {
		t.Errorf("AVX512 phase: 2.4GHz request %v != 2.2GHz request %v",
			at24.SecPerInstr, at22.SecPerInstr)
	}
}

func TestEvaluateBandwidthNeverExceedsCapability(t *testing.T) {
	m := machine6148()
	// An absurdly memory-hungry phase must saturate, not exceed, the
	// subsystem.
	p := Phase{BaseCPI: 0.3, BytesPerInstr: 40, VPI: 0, Overlap: 0.98, ActiveCores: 40}
	for ratio := uint64(12); ratio <= 24; ratio += 3 {
		r, err := Evaluate(m, p, Operating{CoreRatio: 24, UncoreRatio: ratio})
		if err != nil {
			t.Fatal(err)
		}
		cap := m.Mem.CapabilityGBs(units.FromRatio(ratio, cpu.BusClock))
		if r.NodeGBs > cap*m.Mem.MaxUtilization*1.01 {
			t.Errorf("uncore ratio %d: achieved %v GB/s exceeds saturated capability %v",
				ratio, r.NodeGBs, cap*m.Mem.MaxUtilization)
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	m := machine6148()
	bad := cpuBoundPhase()
	bad.BaseCPI = -1
	if _, err := Evaluate(m, bad, Operating{CoreRatio: 24, UncoreRatio: 24}); err == nil {
		t.Error("expected phase validation error")
	}
	if _, err := Evaluate(m, cpuBoundPhase(), Operating{CoreRatio: 24, UncoreRatio: 0}); err == nil {
		t.Error("expected error for zero uncore ratio")
	}
}

// TestEvaluateAllocations: the simulator evaluates an operating point
// on every step it does not replay; the evaluation allocates nothing.
func TestEvaluateAllocations(t *testing.T) {
	m := machine6148()
	p := Phase{BaseCPI: 0.8, BytesPerInstr: 3, Overlap: 0.92, ActiveCores: 40}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Evaluate(m, p, Operating{CoreRatio: 24, UncoreRatio: 20}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Evaluate allocates %v times", n)
	}
}

// TestSolveHoldOverlapRoundTrip: with core fraction 0 the solver holds
// the prototype's overlap and solves BaseCPI and bytes/instr so that
// Evaluate reproduces the targets.
func TestSolveHoldOverlapRoundTrip(t *testing.T) {
	m := machine6148()
	op := Operating{CoreRatio: 24, UncoreRatio: 24}
	cases := []struct {
		name       string
		cpi, gbs   float64
		vpi, ovl   float64
		activeCore int
	}{
		{"bt-mz-like", 0.39, 28, 0, 0.7, 40},
		{"sp-mz-like", 0.53, 78, 0, 0.85, 40},
		{"hpcg-like", 3.13, 177.45, 0, 0.95, 40},
		{"dgemm-like", 0.45, 98, 1.0, 0.9, 40},
		{"cuda-busywait", 0.49, 0.09, 0, 0.5, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			proto := Phase{VPI: c.vpi, Overlap: c.ovl, ActiveCores: c.activeCore}
			ph, err := Solve(m, proto, op, c.cpi, c.gbs, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Evaluate(m, ph, op)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.CPI-c.cpi) > 0.01*c.cpi {
				t.Errorf("CPI = %v, want %v", got.CPI, c.cpi)
			}
			if c.gbs > 0 && math.Abs(got.NodeGBs-c.gbs) > 0.02*c.gbs {
				t.Errorf("GB/s = %v, want %v", got.NodeGBs, c.gbs)
			}
		})
	}
}

// TestSolveBaseCPIErrors: in the hold-overlap case (core fraction 0,
// BaseCPI free) targets the model cannot mean are refused and a
// plausible one is accepted.
func TestSolveBaseCPIErrors(t *testing.T) {
	m := machine6148()
	proto := Phase{VPI: 0, Overlap: 0.5, ActiveCores: 40}
	op := Operating{CoreRatio: 24, UncoreRatio: 24}
	if _, err := Solve(m, proto, op, 0, 10, 0); err == nil {
		t.Error("expected error for zero target CPI")
	}
	if _, err := Solve(m, proto, op, 1, -1, 0); err == nil {
		t.Error("expected error for negative target GB/s")
	}
	if _, err := Solve(m, proto, op, 1, 10, 0); err != nil {
		t.Errorf("core fraction 0 holds the overlap, not an error: %v", err)
	}
}

func TestSolveRaisesOverlapWhenNeeded(t *testing.T) {
	// A very memory-heavy target with low requested overlap would give a
	// negative core CPI; the solver must raise the overlap instead.
	m := machine6148()
	proto := Phase{VPI: 0, Overlap: 0.1, ActiveCores: 40}
	op := Operating{CoreRatio: 24, UncoreRatio: 24}
	ph, err := Solve(m, proto, op, 1.0, 150, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Overlap <= 0.1 {
		t.Errorf("overlap not raised: %v", ph.Overlap)
	}
	got, err := Evaluate(m, ph, op)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.CPI-1.0) > 0.05 {
		t.Errorf("CPI = %v, want ~1.0", got.CPI)
	}
}
