package perf_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"goear/internal/cpu"
	"goear/internal/mem"
	"goear/internal/perf"
	"goear/internal/units"
	"goear/internal/workload"
)

// oracleEvaluate is the scalar Evaluate the lane kernel replaced, kept
// verbatim as the kernel's oracle: one phase, the latency formula and
// licence blend inline, a 60-step bisection that picks its bracket end
// by a branch. Every product that feeds a sum is an explicit
// float64(x*y), as in the kernel, so that no target fuses one side
// only.
func oracleEvaluate(m perf.Machine, p perf.Phase, op perf.Operating) (perf.Result, error) {
	if err := oracleValidate(p); err != nil {
		return perf.Result{}, err
	}
	fEff := oracleEffectiveCoreFreq(m.CPU, p.VPI, op.CoreRatio)
	fu := units.FromRatio(op.UncoreRatio, cpu.BusClock)
	if fu.GHzF() <= 0 {
		return perf.Result{}, fmt.Errorf("perf: uncore ratio %d yields non-positive frequency", op.UncoreRatio)
	}
	fg := fEff.GHzF()

	linesPerInstr := p.BytesPerInstr / perf.CacheLineBytes
	exposed := (1 - p.Overlap) * linesPerInstr
	cap := m.Mem.CapabilityGBs(fu)
	sat := cap * m.Mem.MaxUtilization

	// cpiAt computes latency-limited CPI at a trial utilisation.
	cpiAt := func(rho float64) float64 {
		return p.BaseCPI + float64(exposed*oracleLatencyNs(m.Mem, fu, rho)*fg)
	}
	// demandAt computes the node bandwidth demanded at that CPI.
	demandAt := func(cpi float64) float64 {
		return float64(p.ActiveCores) * (fg * 1e9 / cpi) * p.BytesPerInstr / 1e9
	}
	// implied maps trial rho to the utilisation its demand would cause.
	implied := func(rho float64) float64 {
		if cap <= 0 {
			return m.Mem.MaxUtilization
		}
		u := demandAt(cpiAt(rho)) / cap
		if u > m.Mem.MaxUtilization {
			u = m.Mem.MaxUtilization
		}
		return u
	}

	var rho, cpi float64
	switch {
	case p.BytesPerInstr == 0:
		rho, cpi = 0, p.BaseCPI
	case implied(m.Mem.MaxUtilization) >= m.Mem.MaxUtilization:
		// Saturated even under maximum queueing delay: bandwidth-bound.
		rho = m.Mem.MaxUtilization
		cpi = cpiAt(rho)
		if d := demandAt(cpi); d > sat && sat > 0 {
			cpi *= d / sat
		}
	default:
		lo, hi := 0.0, m.Mem.MaxUtilization
		for i := 0; i < 60; i++ {
			mid := (lo + hi) / 2
			if implied(mid) > mid {
				lo = mid
			} else {
				hi = mid
			}
		}
		rho = (lo + hi) / 2
		cpi = cpiAt(rho)
	}

	ipsCore := fg * 1e9 / cpi
	gbs := float64(p.ActiveCores) * ipsCore * p.BytesPerInstr / 1e9
	res := perf.Result{
		CPI:            cpi,
		EffCoreFreq:    fEff,
		UncoreFreq:     fu,
		IPSCore:        ipsCore,
		NodeGBs:        gbs,
		MemUtilization: rho,
		SecPerInstr:    1 / ipsCore,
	}
	if math.IsNaN(res.CPI) || math.IsInf(res.CPI, 0) {
		return perf.Result{}, fmt.Errorf("perf: model diverged (CPI=%v)", res.CPI)
	}
	return res, nil
}

func oracleValidate(p perf.Phase) error {
	switch {
	case p.BaseCPI <= 0:
		return fmt.Errorf("perf: base CPI must be positive, got %g", p.BaseCPI)
	case p.BytesPerInstr < 0:
		return fmt.Errorf("perf: bytes/instr must be non-negative, got %g", p.BytesPerInstr)
	case p.VPI < 0 || p.VPI > 1:
		return fmt.Errorf("perf: VPI %g outside [0,1]", p.VPI)
	case p.Overlap < 0 || p.Overlap >= 1:
		return fmt.Errorf("perf: overlap %g outside [0,1)", p.Overlap)
	case p.ActiveCores <= 0:
		return fmt.Errorf("perf: active cores must be positive, got %d", p.ActiveCores)
	}
	return nil
}

func oracleLatencyNs(c mem.Config, fu units.Freq, rho float64) float64 {
	g := fu.GHzF()
	if g <= 0 {
		g = 1e-3
	}
	base := c.IdleLatencyNs + c.UncoreLatencyNsGHz/g
	if rho < 0 {
		rho = 0
	}
	if rho > c.MaxUtilization {
		rho = c.MaxUtilization
	}
	queue := 1 + c.QueueGain*rho*rho*rho/(1-rho)
	return base * queue
}

func oracleEffectiveCoreFreq(m cpu.Model, vpi float64, coreRatio uint64) units.Freq {
	rNon := m.EffectiveRatio(coreRatio, false)
	rAvx := m.EffectiveRatio(coreRatio, true)
	fNon := units.FromRatio(rNon, cpu.BusClock).GHzF()
	fAvx := units.FromRatio(rAvx, cpu.BusClock).GHzF()
	return units.GHz(float64((1-vpi)*fNon) + float64(vpi*fAvx))
}

// resultDiff names the first field where got and want differ in their
// bits, with both values' bits and how many ulps apart they are; "" if
// they are the same bits throughout.
func resultDiff(got, want perf.Result) string {
	fields := []struct {
		name   string
		got, w float64
	}{
		{"CPI", got.CPI, want.CPI},
		{"EffCoreFreq", got.EffCoreFreq.GHzF(), want.EffCoreFreq.GHzF()},
		{"UncoreFreq", got.UncoreFreq.GHzF(), want.UncoreFreq.GHzF()},
		{"IPSCore", got.IPSCore, want.IPSCore},
		{"NodeGBs", got.NodeGBs, want.NodeGBs},
		{"MemUtilization", got.MemUtilization, want.MemUtilization},
		{"SecPerInstr", got.SecPerInstr, want.SecPerInstr},
	}
	for _, f := range fields {
		g, w := math.Float64bits(f.got), math.Float64bits(f.w)
		if g != w {
			return fmt.Sprintf("%s: got %#016x (%v), want %#016x (%v), %d ulps apart", f.name, g, f.got, w, f.w, ulps(g, w))
		}
	}
	if got.EffCoreFreq != want.EffCoreFreq || got.UncoreFreq != want.UncoreFreq {
		return fmt.Sprintf("frequencies: got %v/%v, want %v/%v", got.EffCoreFreq, got.UncoreFreq, want.EffCoreFreq, want.UncoreFreq)
	}
	return ""
}

// ulps is the distance between two float64 bit patterns of one sign.
func ulps(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// checkGroup evaluates phases in one EvaluateAll call and requires
// every result, and the first error, bit for bit as the oracle's.
func checkGroup(t *testing.T, where string, m perf.Machine, op perf.Operating, phases []perf.Phase) {
	t.Helper()
	out := make([]perf.Result, len(phases))
	n, err := perf.EvaluateAll(m, op, phases, out)
	for i, p := range phases {
		want, werr := oracleEvaluate(m, p, op)
		if werr != nil {
			if i != n || err == nil || err.Error() != werr.Error() {
				t.Fatalf("%s: phase %d %+v at %+v: EvaluateAll stopped at %d with %v, oracle fails here with %v", where, i, p, op, n, err, werr)
			}
			return
		}
		if i >= n {
			t.Fatalf("%s: phase %d %+v at %+v: EvaluateAll stopped at %d with %v, oracle gives %+v", where, i, p, op, n, err, want)
		}
		if d := resultDiff(out[i], want); d != "" {
			t.Fatalf("%s: phase %d %+v at %+v: %s", where, i, p, op, d)
		}
		// The one-phase case is the same kernel, a lone lane.
		got, gerr := perf.Evaluate(m, p, op)
		if gerr != nil {
			t.Fatalf("%s: phase %d %+v at %+v: Evaluate: %v", where, i, p, op, gerr)
		}
		if d := resultDiff(got, want); d != "" {
			t.Fatalf("%s: phase %d %+v at %+v: Evaluate: %s", where, i, p, op, d)
		}
	}
	if n != len(phases) || err != nil {
		t.Fatalf("%s: EvaluateAll stopped at %d of %d with %v; the oracle evaluates them all", where, n, len(phases), err)
	}
}

// TestEvaluateAllMatchesOracle requires the lane kernel to reproduce
// the scalar oracle bit for bit: the learning phase's probe phases on
// every platform at every pstate and three uncore ratios; seeded random
// phases with no traffic, bandwidth-bound and bisected (to the exact
// stop, or through all 60 steps), in groups of every length from 1 to
// 9; and the first error of a group, invalid or diverging.
func TestEvaluateAllMatchesOracle(t *testing.T) {
	for _, name := range workload.PlatformNames() {
		pl, err := workload.PlatformByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := pl.Machine.CPU
		phases := probePhases(c.TotalCores())
		for p := 0; p < c.PstateCount(); p++ {
			r, err := c.PstateRatio(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range []uint64{c.UncoreMinRatio, (c.UncoreMinRatio + c.UncoreMaxRatio) / 2, c.UncoreMaxRatio} {
				checkGroup(t, fmt.Sprintf("%s pstate %d uncore %d", name, p, u), pl.Machine, perf.Operating{CoreRatio: r, UncoreRatio: u}, phases)
			}
		}
	}

	m := workload.SD530().Machine
	rng := rand.New(rand.NewSource(62))
	// A third of the phases move no data, a third stream with nearly
	// all latency hidden (mostly bandwidth-bound), a third are anything.
	phase := func() perf.Phase {
		p := perf.Phase{
			BaseCPI:       0.05 + 3*rng.Float64(),
			BytesPerInstr: 12 * rng.Float64() * rng.Float64(),
			VPI:           rng.Float64() * float64(rng.Intn(2)),
			Overlap:       0.999 * rng.Float64(),
			ActiveCores:   1 + rng.Intn(40),
		}
		switch rng.Intn(3) {
		case 0:
			p.BytesPerInstr = 0
		case 1:
			p.BaseCPI = 0.2 + 0.4*rng.Float64()
			p.BytesPerInstr = 4 + 8*rng.Float64()
			p.Overlap = 1 - math.Pow(10, -2-2*rng.Float64())
			p.ActiveCores = 30 + rng.Intn(11)
		}
		return p
	}
	// Bisected phases end their replay one of two ways: at the exact
	// stop, or after all 60 steps, when the fixed point is small enough
	// that no midpoint meets an end of the bracket in time.
	var kinds [4]int // no traffic, bandwidth-bound, bisected to the stop, bisected 60 steps
	var one [1]perf.Result
	for rep := 0; rep < 300; rep++ {
		op := perf.Operating{CoreRatio: uint64(8 + rng.Intn(22)), UncoreRatio: uint64(12 + rng.Intn(13))}
		for l := 1; l <= 9; l++ {
			phases := make([]perf.Phase, l)
			for i := range phases {
				phases[i] = phase()
				want, err := oracleEvaluate(m, phases[i], op)
				switch {
				case err != nil:
				case phases[i].BytesPerInstr == 0:
					kinds[0]++
				case want.MemUtilization == m.Mem.MaxUtilization:
					kinds[1]++
				default:
					if _, steps, _, _ := perf.EvaluateAllWork(m, op, phases[i:i+1], one[:]); steps < 60 {
						kinds[2]++
					} else {
						kinds[3]++
					}
				}
			}
			checkGroup(t, fmt.Sprintf("random rep %d length %d", rep, l), m, op, phases)
			if rep%10 == 0 {
				// The first invalid phase ends the group, after every
				// lane before it has been solved.
				bad := rng.Intn(l)
				phases[bad].Overlap = 1
				checkGroup(t, fmt.Sprintf("random rep %d length %d, phase %d invalid", rep, l, bad), m, op, phases)
			}
		}
	}
	// About one bisected phase in ten runs all 60 steps (561 of 5,529).
	for k, floor := range [4]int{1000, 1000, 1000, 500} {
		if kinds[k] < floor {
			t.Errorf("random phases of kind %d: %d, want at least %d (no traffic, bandwidth-bound, bisected to the stop, bisected 60 steps: %v)", k, kinds[k], floor, kinds)
		}
	}
	checkGroup(t, "uncore ratio 0", m, perf.Operating{CoreRatio: 24}, []perf.Phase{phase(), phase()})

	// Non-finite inputs pass validation and diverge: the first such phase
	// ends the group with the oracle's error, whatever lanes its NaNs
	// steer.
	inf, nan := math.Inf(1), math.NaN()
	ok := perf.Phase{BaseCPI: 0.6, BytesPerInstr: 2, Overlap: 0.95, ActiveCores: 40}
	for i, mut := range []func(*perf.Phase){
		func(p *perf.Phase) { p.BaseCPI = inf },
		func(p *perf.Phase) { p.BaseCPI = nan },
		func(p *perf.Phase) { p.BytesPerInstr = inf },
		func(p *perf.Phase) { p.Overlap = nan },
		func(p *perf.Phase) { p.VPI = nan },
	} {
		for l := 1; l <= 5; l++ {
			phases := []perf.Phase{ok, ok, ok, ok, ok}[:l]
			mut(&phases[l-1])
			checkGroup(t, fmt.Sprintf("non-finite input %d, length %d", i, l), m, perf.Operating{CoreRatio: 24, UncoreRatio: 18}, phases)
		}
	}
}
