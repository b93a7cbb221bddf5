package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleAt(t float64) Sample {
	// A node retiring 1e10 instr/s at CPI 0.5, 20 GB/s, 300 W, 10% AVX,
	// 2.4 GHz core, 2.0 GHz uncore, 1 iteration per second.
	return Sample{
		TimeSec:         t,
		Instructions:    1e10 * t,
		CoreCycles:      0.5e10 * t,
		AVXInstructions: 1e9 * t,
		DRAMBytes:       20e9 * t,
		EnergyJ:         300 * t,
		CoreFreqSeconds: 2.4 * t,
		IMCFreqSeconds:  2.0 * t,
		Iterations:      int(t),
	}
}

func TestComputeBasics(t *testing.T) {
	sig, err := Compute(sampleAt(0), sampleAt(10))
	if err != nil {
		t.Fatal(err)
	}
	if sig.TimeSec != 10 {
		t.Errorf("TimeSec = %v", sig.TimeSec)
	}
	if math.Abs(sig.CPI-0.5) > 1e-12 {
		t.Errorf("CPI = %v, want 0.5", sig.CPI)
	}
	if math.Abs(sig.DCPowerW-300) > 1e-9 {
		t.Errorf("power = %v, want 300", sig.DCPowerW)
	}
	if math.Abs(sig.GBs-20) > 1e-9 {
		t.Errorf("GBs = %v, want 20", sig.GBs)
	}
	if math.Abs(sig.VPI-0.1) > 1e-12 {
		t.Errorf("VPI = %v, want 0.1", sig.VPI)
	}
	if math.Abs(sig.TPI-20e9/64/1e10) > 1e-15 {
		t.Errorf("TPI = %v", sig.TPI)
	}
	if math.Abs(sig.AvgCPUGHz-2.4) > 1e-12 || math.Abs(sig.AvgIMCGHz-2.0) > 1e-12 {
		t.Errorf("frequencies = %v / %v", sig.AvgCPUGHz, sig.AvgIMCGHz)
	}
	if sig.Iterations != 10 {
		t.Errorf("iterations = %d, want 10", sig.Iterations)
	}
	if math.Abs(sig.IterTimeSec-1.0) > 1e-12 {
		t.Errorf("iteration time = %v, want 1", sig.IterTimeSec)
	}
	if !sig.Valid() {
		t.Error("signature should be valid")
	}
}

func TestComputeNoIterations(t *testing.T) {
	a, b := sampleAt(0), sampleAt(10)
	b.Iterations = 0
	sig, err := Compute(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Without iteration counts the window itself is the "iteration".
	if sig.IterTimeSec != sig.TimeSec {
		t.Errorf("IterTimeSec = %v, want window %v", sig.IterTimeSec, sig.TimeSec)
	}
}

func TestComputeErrors(t *testing.T) {
	a := sampleAt(5)
	if _, err := Compute(a, a); err == nil {
		t.Error("expected error for zero window")
	}
	if _, err := Compute(sampleAt(10), sampleAt(5)); err == nil {
		t.Error("expected error for negative window")
	}
	b := sampleAt(10)
	b.Instructions = sampleAt(0).Instructions
	if _, err := Compute(sampleAt(0), b); err == nil {
		t.Error("expected error for no instructions")
	}
	b = sampleAt(10)
	b.DRAMBytes = -1
	if _, err := Compute(sampleAt(0), b); err == nil {
		t.Error("expected error for backwards counter")
	}
}

func TestChanged(t *testing.T) {
	base := Signature{CPI: 1.0, GBs: 50}
	cases := []struct {
		sig  Signature
		th   float64
		want bool
	}{
		{Signature{CPI: 1.0, GBs: 50}, 0.15, false},
		{Signature{CPI: 1.10, GBs: 50}, 0.15, false},   // 10% < 15%
		{Signature{CPI: 1.20, GBs: 50}, 0.15, true},    // 20% > 15%
		{Signature{CPI: 0.80, GBs: 50}, 0.15, true},    // drop counts too
		{Signature{CPI: 1.0, GBs: 60}, 0.15, true},     // GBs +20%
		{Signature{CPI: 1.0, GBs: 44}, 0.15, false},    // GBs -12%
		{Signature{CPI: 1.0195, GBs: 51}, 0.02, false}, // just under threshold
	}
	for i, c := range cases {
		if got := Changed(base, c.sig, c.th); got != c.want {
			t.Errorf("case %d: Changed = %v, want %v", i, got, c.want)
		}
	}
}

func TestChangedIgnoresTinyBandwidth(t *testing.T) {
	// CUDA busy-wait style signatures: GB/s noise at the 0.1 GB/s scale
	// must not trigger re-evaluation.
	a := Signature{CPI: 0.5, GBs: 0.09}
	b := Signature{CPI: 0.5, GBs: 0.18}
	if Changed(a, b, 0.15) {
		t.Error("sub-1GB/s bandwidth change must be ignored")
	}
}

func TestChangedSymmetryProperty(t *testing.T) {
	// For CPI-only differences within 1%..99%, Changed(a,b) at
	// threshold th must equal relative difference > th.
	fn := func(deltaPct uint8, thPct uint8) bool {
		d := float64(deltaPct%99+1) / 100
		th := float64(thPct%99+1) / 100
		if math.Abs(d-th) < 1e-9 {
			// Exact boundary: float rounding may fall either way.
			return true
		}
		a := Signature{CPI: 1, GBs: 0}
		b := Signature{CPI: 1 + d, GBs: 0}
		return Changed(a, b, th) == (d > th)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestValid(t *testing.T) {
	good := Signature{TimeSec: 10, CPI: 1, DCPowerW: 300, VPI: 0.5}
	if !good.Valid() {
		t.Error("good signature reported invalid")
	}
	bads := []Signature{
		{TimeSec: 0, CPI: 1},
		{TimeSec: 10, CPI: 0},
		{TimeSec: 10, CPI: 1, DCPowerW: -1},
		{TimeSec: 10, CPI: 1, VPI: 2},
		{TimeSec: 10, CPI: math.NaN()},
		{TimeSec: 10, CPI: math.Inf(1)},
	}
	for i, b := range bads {
		if b.Valid() {
			t.Errorf("bad signature %d reported valid", i)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		sig  Signature
		want PhaseClass
	}{
		{Signature{CPI: 0.49, GBs: 0.09}, BusyWaiting},     // CUDA host spin
		{Signature{CPI: 0.39, GBs: 28}, cpuComp},           // BT-MZ
		{Signature{CPI: 3.13, GBs: 177}, MemBound},         // HPCG
		{Signature{CPI: 0.72, GBs: 100}, mixed},            // POP
		{Signature{CPI: 0.45, GBs: 98, VPI: 1}, mixed},     // DGEMM
		{Signature{CPI: 0.3, GBs: 0.1, VPI: 0.5}, cpuComp}, // AVX spin is not busy-wait
		{Signature{CPI: 2.0, GBs: 20}, cpuComp},            // high CPI, low traffic
	}
	for i, c := range cases {
		if got := Classify(c.sig); got != c.want {
			t.Errorf("case %d: Classify = %v, want %v", i, got, c.want)
		}
	}
}

func TestPhaseClassString(t *testing.T) {
	names := map[PhaseClass]string{
		cpuComp: "CPU_COMP", MemBound: "MEM_BOUND", mixed: "MIXED",
		BusyWaiting: "BUSY_WAITING", PhaseClass(9): "PhaseClass(9)",
	}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
}
