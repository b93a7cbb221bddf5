package power

import (
	"math"
	"testing"
	"testing/quick"

	"goear/internal/msr"
)

func nominalInput() Input {
	return Input{
		CoreFreqGHz:   2.4,
		UncoreFreqGHz: 2.4,
		Sockets:       2,
		ActiveCores:   40,
		Activity:      1.0,
		GBs:           28,
	}
}

func TestCoeffsValidate(t *testing.T) {
	if err := SD530Coeffs().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := GPUNodeCoeffs().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := SD530Coeffs()
	bad.UncoreDyn = -1
	if err := bad.Validate(); err == nil {
		t.Error("expected error for negative coefficient")
	}
	bad = SD530Coeffs()
	bad.UncoreExp = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero exponent")
	}
	bad = SD530Coeffs()
	bad.V0 = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("expected error for NaN coefficient")
	}
}

func TestInputValidate(t *testing.T) {
	good := nominalInput()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Input){
		func(in *Input) { in.CoreFreqGHz = 0 },
		func(in *Input) { in.UncoreFreqGHz = -1 },
		func(in *Input) { in.Sockets = 0 },
		func(in *Input) { in.ActiveCores = -1 },
		func(in *Input) { in.Activity = -0.1 },
		func(in *Input) { in.GBs = -1 },
		func(in *Input) { in.GPUPower = -1 },
	}
	for i, mut := range muts {
		in := good
		mut(&in)
		if err := in.validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

func TestNodeBreakdownConsistency(t *testing.T) {
	c := SD530Coeffs()
	b, err := c.Node(nominalInput())
	if err != nil {
		t.Fatal(err)
	}
	if got := b.PkgBase + b.CoreDyn + b.Uncore; math.Abs(got-b.Pkg) > 1e-9 {
		t.Errorf("Pkg = %v, parts sum to %v", b.Pkg, got)
	}
	if got := b.Pkg + b.Dram + b.Other + b.GPU; math.Abs(got-b.Total) > 1e-9 {
		t.Errorf("Total = %v, parts sum to %v", b.Total, got)
	}
	// The SD530 at full tilt lands in the paper's 300-370W band.
	if b.Total < 280 || b.Total > 400 {
		t.Errorf("nominal DC power = %vW, want within the SD530 band", b.Total)
	}
}

func TestNodePowerMonotonicInFrequencies(t *testing.T) {
	c := SD530Coeffs()
	fn := func(a, b uint8) bool {
		fa := 1.0 + float64(a%15)*0.1
		fb := 1.0 + float64(b%15)*0.1
		if fa > fb {
			fa, fb = fb, fa
		}
		in := nominalInput()
		in.CoreFreqGHz = fa
		lo, err1 := c.Node(in)
		in.CoreFreqGHz = fb
		hi, err2 := c.Node(in)
		if err1 != nil || err2 != nil {
			return false
		}
		if hi.Total < lo.Total {
			return false
		}
		// Same for uncore.
		in = nominalInput()
		in.UncoreFreqGHz = fa
		lo, err1 = c.Node(in)
		in.UncoreFreqGHz = fb
		hi, err2 = c.Node(in)
		if err1 != nil || err2 != nil {
			return false
		}
		return hi.Total >= lo.Total
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestUncoreShareMatchesPaperScale(t *testing.T) {
	// Dropping uncore 2.4 -> 2.0 GHz must save a mid-single-digit
	// percentage of a ~330 W node: the magnitude behind the paper's
	// 7-8 % savings at ~1.98 GHz.
	c := SD530Coeffs()
	in := nominalInput()
	hi, err := c.Node(in)
	if err != nil {
		t.Fatal(err)
	}
	in.UncoreFreqGHz = 2.0
	lo, err := c.Node(in)
	if err != nil {
		t.Fatal(err)
	}
	save := (hi.Total - lo.Total) / hi.Total
	if save < 0.03 || save > 0.12 {
		t.Errorf("uncore 2.4->2.0 saving = %.1f%%, want 3-12%%", save*100)
	}
}

func TestNodeErrors(t *testing.T) {
	c := SD530Coeffs()
	in := nominalInput()
	in.Sockets = 0
	if _, err := c.Node(in); err == nil {
		t.Error("expected input validation error")
	}
	bad := c
	bad.PkgBase = -5
	if _, err := bad.Node(nominalInput()); err == nil {
		t.Error("expected coefficient validation error")
	}
}

func TestSolveActivityRoundTrip(t *testing.T) {
	c := SD530Coeffs()
	for _, target := range []float64{300, 332, 358, 369} {
		in := nominalInput()
		act, err := c.SolveActivity(in, target)
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		in.Activity = act
		b, err := c.Node(in)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(b.Total-target) > 1e-6 {
			t.Errorf("target %v: reproduced %v", target, b.Total)
		}
	}
}

func TestSolveActivityErrors(t *testing.T) {
	c := SD530Coeffs()
	in := nominalInput()
	if _, err := c.SolveActivity(in, 10); err == nil {
		t.Error("expected error for target below static power")
	}
	in.ActiveCores = 0
	if _, err := c.SolveActivity(in, 300); err == nil {
		t.Error("expected error for zero core term")
	}
}

func TestRaplAccounting(t *testing.T) {
	files := []*msr.File{new(msr.File), new(msr.File)}
	for _, f := range files {
		f.Init(12, 24)
	}
	var r Rapl
	if err := r.Init(files); err != nil {
		t.Fatal(err)
	}
	b := Breakdown{Pkg: 200, Dram: 40}
	// 10 seconds in 10ms ticks.
	for i := 0; i < 1000; i++ {
		if err := r.Advance(b, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	// The package counters read as EARL reads them: the sum over
	// sockets, then a delta against the previous reading.
	var raw [2]uint64
	j := 0.0
	for i, f := range files {
		v, err := f.Read(msr.MSRPkgEnergyStatus)
		if err != nil {
			t.Fatal(err)
		}
		raw[i] = v
		j += f.EnergyJoules(v)
	}
	if math.Abs(j-2000) > 1 {
		t.Errorf("package energy = %v J, want ~2000", j)
	}
	for i := 0; i < 100; i++ {
		if err := r.Advance(b, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	dj := 0.0
	for i, f := range files {
		v, err := f.Read(msr.MSRPkgEnergyStatus)
		if err != nil {
			t.Fatal(err)
		}
		dj += f.EnergyJoules(msr.EnergyDelta(raw[i], v))
	}
	if math.Abs(dj-200) > 0.5 {
		t.Errorf("delta package energy = %v J, want ~200", dj)
	}
	// DRAM counter on socket 0.
	v, err := files[0].Read(msr.MSRDramEnergyStatus)
	if err != nil {
		t.Fatal(err)
	}
	if got := files[0].EnergyJoules(v); math.Abs(got-440) > 1 {
		t.Errorf("DRAM energy = %v J, want ~440", got)
	}
}

func TestRaplErrors(t *testing.T) {
	var r Rapl
	if err := r.Init(nil); err == nil {
		t.Error("expected error for no sockets")
	}
	f := new(msr.File)
	f.Init(12, 24)
	if err := r.Init([]*msr.File{f}); err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(Breakdown{Pkg: 100}, -1); err == nil {
		t.Error("expected error for negative dt")
	}
}

func TestNodeManagerQuantisation(t *testing.T) {
	nm := new(NodeManager)
	// 0.4 s at 300 W: nothing published yet.
	if err := nm.Advance(300, 0.4); err != nil {
		t.Fatal(err)
	}
	if e := nm.ReadEnergy(); e != 0 {
		t.Errorf("published %v J before first second", e)
	}
	// Cross the 1 s boundary.
	if err := nm.Advance(300, 0.7); err != nil {
		t.Fatal(err)
	}
	if e := nm.ReadEnergy(); e <= 0 {
		t.Error("counter not published after 1s")
	}
	if got, want := nm.TrueEnergy(), 330.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("true energy = %v, want %v", got, want)
	}
}

func TestNodeManagerLongRunAccuracy(t *testing.T) {
	nm := new(NodeManager)
	// 100 s at 250 W in 10 ms steps: published must track true within
	// one second's worth of energy.
	for i := 0; i < 10000; i++ {
		if err := nm.Advance(250, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	trueJ := nm.TrueEnergy()
	pub := nm.ReadEnergy()
	if math.Abs(trueJ-25000) > 1e-6 {
		t.Errorf("true energy = %v, want 25000", trueJ)
	}
	if trueJ-pub > 251 {
		t.Errorf("published lag = %v J, want <= 1s of power", trueJ-pub)
	}
	if _, _, _, now := nm.FlatState(); now < 99.99 || now > 100.01 {
		t.Errorf("meter clock = %v, want ~100", now)
	}
}

func TestNodeManagerNegativeDt(t *testing.T) {
	nm := new(NodeManager)
	if err := nm.Advance(100, -0.1); err == nil {
		t.Error("expected error for negative dt")
	}
}
