package sim

import (
	"math"
	"math/rand"
	"testing"

	"goear/internal/metrics"
	"goear/internal/msr"
	"goear/internal/policy"
	"goear/internal/workload"
)

// TestRaplCountersMatchTrueIntegral cross-checks the instrument chain:
// the RAPL MSR counters, read back through the wraparound-aware path,
// must agree with the simulator's exact package-energy integral.
func TestRaplCountersMatchTrueIntegral(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	n, err := newNode(&cal, 0, Options{Policy: "none", Seed: 1}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for !n.done {
		if err := n.stepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	var raplJ float64
	for _, f := range n.files {
		v, err := f.Read(msr.MSRPkgEnergyStatus)
		if err != nil {
			t.Fatal(err)
		}
		raplJ += f.EnergyJoules(v)
	}
	// The 32-bit counters wrap every ~2^32/2^14 J ≈ 262 kJ; a 145 s run
	// at ~235 W package stays below one wrap, so the raw values are the
	// integral.
	if rel := math.Abs(raplJ-n.pkgJ) / n.pkgJ; rel > 1e-3 {
		t.Errorf("RAPL counters %.1f J vs true integral %.1f J (%.4f%% off)",
			raplJ, n.pkgJ, rel*100)
	}
	// Node Manager true energy equals avg power times time by
	// construction; its published value may lag by at most one second.
	if lag := n.inm.TrueEnergy() - n.inm.ReadEnergy(); lag < 0 || lag > 400 {
		t.Errorf("published DC energy lags by %.1f J", lag)
	}
}

// TestEnergyScopesNest checks the instrument hierarchy: core dynamic +
// uncore + package base = PKG <= DC, and DRAM + PKG < DC.
func TestEnergyScopesNest(t *testing.T) {
	for _, name := range []string{workload.BTMZC, workload.HPCG, workload.BTCUDA} {
		cal := calibrated(t, name)
		r, err := Run(cal, Options{Policy: "none", Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		n0 := r.Nodes[0]
		if n0.PkgEnergyJ <= 0 || n0.DramEnergyJ <= 0 {
			t.Fatalf("%s: scope energies not recorded: %+v", name, n0)
		}
		if n0.PkgEnergyJ+n0.DramEnergyJ >= n0.EnergyJ {
			t.Errorf("%s: PKG(%.0f)+DRAM(%.0f) not inside DC(%.0f)",
				name, n0.PkgEnergyJ, n0.DramEnergyJ, n0.EnergyJ)
		}
	}
}

// TestPolicyFuzzNeverViolatesWindow drives the eUFS policy with random
// (but valid) signatures and checks the MSR-visible invariants: the
// requested uncore window always stays inside the hardware range and
// the CPU pstate inside the table.
func TestPolicyFuzzNeverViolatesWindow(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	m := platformModel(t, cal.Platform)
	cpuModel := cal.Platform.Machine.CPU
	pol, err := policy.New(policy.MinEnergyEUFS, policy.Config{
		Model:          m,
		CPUPolicyTh:    0.05,
		UncPolicyTh:    0.02,
		HWGuided:       true,
		UseAVX512Model: true,
		DefaultPstate:  1,
		UncoreMinRatio: cpuModel.UncoreMinRatio,
		UncoreMaxRatio: cpuModel.UncoreMaxRatio,
		SigChangeTh:    0.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	cur := 1
	unc := cpuModel.UncoreMaxRatio
	for i := 0; i < 2000; i++ {
		sig := randomSignature(rng)
		nf, _, err := pol.Apply(policy.Inputs{
			Sig: sig, CurrentPstate: cur, CurrentUncoreRatio: unc,
		})
		if err != nil {
			t.Fatalf("iteration %d: %v (sig %+v)", i, err, sig)
		}
		if nf.CPUPstate < 0 || nf.CPUPstate >= m.PstateCount() {
			t.Fatalf("iteration %d: pstate %d outside table", i, nf.CPUPstate)
		}
		if nf.SetIMC {
			if nf.IMCMaxRatio < cpuModel.UncoreMinRatio || nf.IMCMaxRatio > cpuModel.UncoreMaxRatio {
				t.Fatalf("iteration %d: uncore max %d outside hardware window", i, nf.IMCMaxRatio)
			}
			if nf.IMCMinRatio > nf.IMCMaxRatio {
				t.Fatalf("iteration %d: inverted window %d..%d", i, nf.IMCMinRatio, nf.IMCMaxRatio)
			}
			unc = nf.IMCMaxRatio
		}
		cur = nf.CPUPstate
		// Occasionally reset, as EARL does on phase changes.
		if rng.Intn(37) == 0 {
			pol.Reset()
			unc = cpuModel.UncoreMaxRatio
		}
	}
}

// randomSignature produces plausible (always Valid) signatures across
// the whole behaviour space.
func randomSignature(rng *rand.Rand) metrics.Signature {
	cpi := 0.2 + rng.Float64()*4
	gbs := rng.Float64() * 220
	return metrics.Signature{
		TimeSec:     10,
		IterTimeSec: 0.5 + rng.Float64()*3,
		DCPowerW:    250 + rng.Float64()*150,
		CPI:         cpi,
		TPI:         gbs * cpi / (40 * 2.4 * 64),
		GBs:         gbs,
		VPI:         rng.Float64(),
		AvgCPUGHz:   1.0 + rng.Float64()*1.4,
		AvgIMCGHz:   1.2 + rng.Float64()*1.2,
		Iterations:  1 + rng.Intn(20),
	}
}
