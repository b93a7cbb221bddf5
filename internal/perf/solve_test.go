package perf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"goear/internal/cpu"
	"goear/internal/mem"
)

// TestSolveCoreFracRoundTripProperty: for random plausible targets and
// a core fraction in (0,1], the solver must reproduce CPI and GB/s
// through Evaluate and respect the requested core share (unless the
// traffic cannot carry the stall, in which case BaseCPI absorbs the
// remainder).
func TestSolveCoreFracRoundTripProperty(t *testing.T) {
	m := Machine{CPU: cpu.XeonGold6148(), Mem: mem.DDR4SD530()}
	op := Operating{CoreRatio: 24, UncoreRatio: 24}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		targetCPI := 0.3 + rng.Float64()*2.5
		targetGBs := 5 + rng.Float64()*150
		frac := 0.1 + rng.Float64()*0.85
		proto := Phase{VPI: 0, Overlap: 0.8, ActiveCores: 40}
		ph, err := Solve(m, proto, op, targetCPI, targetGBs, frac)
		if err != nil {
			return false
		}
		got, err := Evaluate(m, ph, op)
		if err != nil {
			return false
		}
		if math.Abs(got.CPI-targetCPI) > 0.02*targetCPI {
			return false
		}
		if math.Abs(got.NodeGBs-targetGBs) > 0.03*targetGBs {
			return false
		}
		// The core share holds when the traffic could carry the stall
		// (overlap did not floor at zero).
		if ph.Overlap > 1e-9 {
			wantBase := frac * targetCPI
			if wantBase >= 0.05 && math.Abs(ph.BaseCPI-wantBase) > 0.05*targetCPI {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSolveWithCoreFracErrors: with a core fraction held (overlap free)
// targets the model cannot mean are refused, and so is a fraction
// outside [0,1].
func TestSolveWithCoreFracErrors(t *testing.T) {
	m := Machine{CPU: cpu.XeonGold6148(), Mem: mem.DDR4SD530()}
	op := Operating{CoreRatio: 24, UncoreRatio: 24}
	proto := Phase{Overlap: 0.8, ActiveCores: 40}
	for _, frac := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := Solve(m, proto, op, 1, 10, frac); err == nil {
			t.Errorf("expected error for core fraction %g", frac)
		}
	}
	if _, err := Solve(m, proto, op, 0, 10, 0.5); err == nil {
		t.Error("expected error for zero target CPI")
	}
	if _, err := Solve(m, proto, op, 1, -1, 0.5); err == nil {
		t.Error("expected error for negative GB/s")
	}
	if _, err := Solve(m, proto, op, 1, 10, 0.5); err != nil {
		t.Errorf("core fraction 0.5: %v", err)
	}
}

func TestSolveCoreFracNoTraffic(t *testing.T) {
	// With zero memory traffic the whole CPI goes to the core,
	// whatever fraction was requested.
	m := Machine{CPU: cpu.XeonGold6148(), Mem: mem.DDR4SD530()}
	op := Operating{CoreRatio: 24, UncoreRatio: 24}
	proto := Phase{Overlap: 0.8, ActiveCores: 40}
	ph, err := Solve(m, proto, op, 0.8, 0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ph.BaseCPI-0.8) > 1e-6 {
		t.Errorf("BaseCPI = %v, want full 0.8", ph.BaseCPI)
	}
	got, err := Evaluate(m, ph, op)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.CPI-0.8) > 1e-9 {
		t.Errorf("CPI = %v", got.CPI)
	}
}

// TestCoreFracControlsFrequencyResponse: the whole point of the knob —
// a lower core fraction makes execution time flatter in core frequency.
func TestCoreFracControlsFrequencyResponse(t *testing.T) {
	m := Machine{CPU: cpu.XeonGold6148(), Mem: mem.DDR4SD530()}
	op := Operating{CoreRatio: 24, UncoreRatio: 24}
	low := Operating{CoreRatio: 18, UncoreRatio: 24}
	proto := Phase{Overlap: 0.8, ActiveCores: 40}

	penalty := func(frac float64) float64 {
		ph, err := Solve(m, proto, op, 1.0, 100, frac)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := Evaluate(m, ph, op)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := Evaluate(m, ph, low)
		if err != nil {
			t.Fatal(err)
		}
		return (lo.SecPerInstr - hi.SecPerInstr) / hi.SecPerInstr
	}
	flat := penalty(0.2)
	steep := penalty(0.8)
	if flat >= steep {
		t.Errorf("core fraction 0.2 penalty (%.3f) not below 0.8 penalty (%.3f)", flat, steep)
	}
	// The steep case approaches proportional slowdown (24/18 = 1.33).
	if steep < 0.15 {
		t.Errorf("high core fraction penalty = %.3f, want substantial", steep)
	}
}
