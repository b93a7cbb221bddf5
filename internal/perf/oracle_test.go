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

// oracleEvaluate is the scalar Evaluate the kernel replaced, kept as
// its oracle for everything but the fixed point: one phase, the latency
// formula and licence blend inline. Where the phase needs a search, it
// takes rho, the utilisation the kernel returned, computes every other
// field from it in scalar order, and checks it by its own
// implied-utilisation comparison: rho must be T, the least float in
// (0, MaxUtilization] at which the implied utilisation does not exceed
// it, so the comparison is false at rho and true at the next float
// below, unless that is 0. notT says how rho fails, or is "". Every
// product that feeds a sum is an explicit float64(x*y), as in the
// kernel, so that no target fuses one side only.
func oracleEvaluate(m perf.Machine, p perf.Phase, op perf.Operating, rho float64) (res perf.Result, notT string, err error) {
	if err := oracleValidate(p); err != nil {
		return perf.Result{}, "", err
	}
	fEff := oracleEffectiveCoreFreq(m.CPU, p.VPI, op.CoreRatio)
	fu := units.FromRatio(op.UncoreRatio, cpu.BusClock)
	if fu.GHzF() <= 0 {
		return perf.Result{}, "", fmt.Errorf("perf: uncore ratio %d yields non-positive frequency", op.UncoreRatio)
	}
	fg := fEff.GHzF()

	linesPerInstr := p.BytesPerInstr / perf.CacheLineBytes
	exposed := (1 - p.Overlap) * linesPerInstr
	cap := m.Mem.CapabilityGBs(fu)
	maxU := m.Mem.MaxUtilization
	sat := cap * maxU

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
			return maxU
		}
		u := demandAt(cpiAt(rho)) / cap
		if u > maxU {
			u = maxU
		}
		return u
	}

	var cpi float64
	switch {
	case p.BytesPerInstr == 0:
		rho, cpi = 0, p.BaseCPI
	case implied(maxU) >= maxU:
		// Saturated even under maximum queueing delay: bandwidth-bound.
		rho = maxU
		cpi = cpiAt(rho)
		if d := demandAt(cpi); d > sat && sat > 0 {
			cpi *= d / sat
		}
	default:
		cpi = cpiAt(rho)
		below := math.Nextafter(rho, 0)
		switch {
		case !(rho > 0 && rho <= maxU):
			notT = fmt.Sprintf("rho %#016x (%v) outside (0, %v]", math.Float64bits(rho), rho, maxU)
		case implied(rho) > rho:
			notT = fmt.Sprintf("the implied utilisation exceeds rho %#016x (%v)", math.Float64bits(rho), rho)
		case below > 0 && !(implied(below) > below):
			notT = fmt.Sprintf("the implied utilisation does not exceed %#016x (%v), one float below rho %#016x (%v)",
				math.Float64bits(below), below, math.Float64bits(rho), rho)
		}
	}

	ipsCore := fg * 1e9 / cpi
	gbs := float64(p.ActiveCores) * ipsCore * p.BytesPerInstr / 1e9
	res = perf.Result{
		CPI:            cpi,
		EffCoreFreq:    fEff,
		UncoreFreq:     fu,
		IPSCore:        ipsCore,
		NodeGBs:        gbs,
		MemUtilization: rho,
		SecPerInstr:    1 / ipsCore,
	}
	if math.IsNaN(res.CPI) || math.IsInf(res.CPI, 0) {
		return perf.Result{}, "", fmt.Errorf("perf: model diverged (CPI=%v)", res.CPI)
	}
	return res, notT, nil
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
// every result, and the first error, bit for bit as the oracle's at the
// utilisation returned, and that utilisation to be T.
func checkGroup(t *testing.T, where string, m perf.Machine, op perf.Operating, phases []perf.Phase) {
	t.Helper()
	out := make([]perf.Result, len(phases))
	n, err := perf.EvaluateAll(m, op, phases, out)
	for i, p := range phases {
		want, notT, werr := oracleEvaluate(m, p, op, out[i].MemUtilization)
		if werr != nil {
			if i != n || err == nil || err.Error() != werr.Error() {
				t.Fatalf("%s: phase %d %+v at %+v: EvaluateAll stopped at %d with %v, oracle fails here with %v", where, i, p, op, n, err, werr)
			}
			return
		}
		if i >= n {
			t.Fatalf("%s: phase %d %+v at %+v: EvaluateAll stopped at %d with %v, oracle gives %+v", where, i, p, op, n, err, want)
		}
		if notT != "" {
			t.Fatalf("%s: phase %d %+v at %+v: %s", where, i, p, op, notT)
		}
		if d := resultDiff(out[i], want); d != "" {
			t.Fatalf("%s: phase %d %+v at %+v: %s", where, i, p, op, d)
		}
		// Evaluate is EvaluateAll of one phase.
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

// TestEvaluateAllMatchesOracle requires the kernel to return T as the
// utilisation of every searched phase and to reproduce the scalar
// oracle at the utilisation returned, bit for bit: the learning phase's
// probe phases on every platform at every pstate and three uncore
// ratios; seeded random phases with no traffic, bandwidth-bound and
// searched (among them, phases whose T a 60-step bisection could not
// reach), in groups of every length from 1 to 9; and the first error of
// a group, invalid or diverging.
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
	// A bisection of [0, maxU] capped at 60 steps ends in a bracket
	// maxU·2^-60 wide. Where T's ulp is narrower, the cap stops it short
	// of T: these are the phases where returning T, and not a capped
	// bisection's midpoint, matters (169 of 5,529 searched).
	reach := m.Mem.MaxUtilization / (1 << 60)
	var kinds [4]int // no traffic, bandwidth-bound, searched, searched with T below the cap's reach
	var one [1]perf.Result
	for rep := 0; rep < 300; rep++ {
		op := perf.Operating{CoreRatio: uint64(8 + rng.Intn(22)), UncoreRatio: uint64(12 + rng.Intn(13))}
		for l := 1; l <= 9; l++ {
			phases := make([]perf.Phase, l)
			for i := range phases {
				phases[i] = phase()
				if _, err := perf.EvaluateAll(m, op, phases[i:i+1], one[:]); err != nil {
					continue
				}
				switch rho := one[0].MemUtilization; {
				case phases[i].BytesPerInstr == 0:
					kinds[0]++
				case rho == m.Mem.MaxUtilization:
					kinds[1]++
				default:
					kinds[2]++
					if math.Nextafter(rho, 1)-rho < reach {
						kinds[3]++
					}
				}
			}
			checkGroup(t, fmt.Sprintf("random rep %d length %d", rep, l), m, op, phases)
			if rep%10 == 0 {
				// The first invalid phase ends the group, after every
				// phase before it has been solved.
				bad := rng.Intn(l)
				phases[bad].Overlap = 1
				checkGroup(t, fmt.Sprintf("random rep %d length %d, phase %d invalid", rep, l, bad), m, op, phases)
			}
		}
	}
	for k, floor := range [4]int{1000, 1000, 1000, 150} {
		if kinds[k] < floor {
			t.Errorf("random phases of kind %d: %d, want at least %d (no traffic, bandwidth-bound, searched, T below the cap's reach: %v)", k, kinds[k], floor, kinds)
		}
	}
	checkGroup(t, "uncore ratio 0", m, perf.Operating{CoreRatio: 24}, []perf.Phase{phase(), phase()})

	// Non-finite inputs pass validation and diverge: the first such phase
	// ends the group with the oracle's error.
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
