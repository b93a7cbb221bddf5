package model

import (
	"fmt"

	"goear/internal/cpu"
	"goear/internal/perf"
	"goear/internal/power"
	"goear/internal/stats"
	"goear/internal/units"
)

// TrainConfig describes the node the model is learned for.
type TrainConfig struct {
	Machine perf.Machine
	Power   power.Coeffs
	// Probes are the synthetic phases executed across pstate pairs;
	// when empty, DefaultProbes is used.
	Probes []Probe
}

// Probe is one training workload: an execution phase plus the power
// activity factor it runs with.
type Probe struct {
	Phase    perf.Phase
	Activity float64
}

// DefaultProbes spans the CPI/TPI/bandwidth space the paper's kernels
// and applications cover, like EAR's learning-phase kernel suite.
func DefaultProbes(activeCores int) []Probe {
	var out []Probe
	for _, baseCPI := range []float64{0.3, 0.45, 0.6, 1.0, 1.6} {
		for _, bpi := range []float64{0.02, 0.1, 0.3, 0.8, 2, 4, 6, 8} {
			for _, ov := range []float64{0.7, 0.85, 0.95, 0.985, 0.995} {
				for _, act := range []float64{0.7, 1.2} {
					out = append(out, Probe{
						Phase: perf.Phase{
							BaseCPI:       baseCPI,
							BytesPerInstr: bpi,
							Overlap:       ov,
							ActiveCores:   activeCores,
						},
						Activity: act,
					})
				}
			}
		}
	}
	return out
}

// trainSatCutoff excludes bandwidth-saturated endpoints from the linear
// fits: the roofline clamp covers that regime analytically.
const trainSatCutoff = 0.9

// Train runs the learning phase: every probe is evaluated at every
// pstate pair (uncore held at the hardware maximum, as EAR's
// CPU-frequency model assumes), and the per-class projection
// coefficients are fitted by least squares.
func Train(cfg TrainConfig) (*Model, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Power.Validate(); err != nil {
		return nil, err
	}
	probes := cfg.Probes
	if len(probes) == 0 {
		probes = DefaultProbes(cfg.Machine.CPU.TotalCores())
	}
	if len(probes) < 4*NumClasses {
		return nil, fmt.Errorf("model: need at least %d probes, got %d", 4*NumClasses, len(probes))
	}

	c := cfg.Machine.CPU
	n := c.PstateCount()
	fuMax := units.FromRatio(c.UncoreMaxRatio, cpu.BusClock)
	capGBs := cfg.Machine.Mem.CapabilityGBs(fuMax)
	m := &Model{
		FreqGHz:      PstateTable(c),
		AVX512Pstate: int(c.NominalRatio-c.AVX512Ratio) + 1,
		CapGBs:       capGBs,
		SatGBs:       capGBs * cfg.Machine.Mem.MaxUtilization,
		Pairs:        make([][]PairCoeffs, n),
	}

	// Pre-evaluate every probe at every pstate.
	type point struct {
		cpi, tpi, gbs, rho, pow float64
	}
	eval := make([][]point, n) // [pstate][probe]
	uncore := c.UncoreMaxRatio
	for p := 0; p < n; p++ {
		ratio, err := c.PstateRatio(p)
		if err != nil {
			return nil, err
		}
		eval[p] = make([]point, len(probes))
		for i, pr := range probes {
			r, err := perf.Evaluate(cfg.Machine, pr.Phase, perf.Operating{CoreRatio: ratio, UncoreRatio: uncore})
			if err != nil {
				return nil, fmt.Errorf("model: probe %d at pstate %d: %w", i, p, err)
			}
			b, err := cfg.Power.Node(power.Input{
				CoreFreqGHz:   r.EffCoreFreq.GHzF(),
				UncoreFreqGHz: r.UncoreFreq.GHzF(),
				Sockets:       c.Sockets,
				ActiveCores:   pr.Phase.ActiveCores,
				Activity:      pr.Activity,
				GBs:           r.NodeGBs,
			})
			if err != nil {
				return nil, fmt.Errorf("model: probe %d power at pstate %d: %w", i, p, err)
			}
			eval[p][i] = point{
				cpi: r.CPI,
				tpi: pr.Phase.BytesPerInstr / perf.CacheLineBytes,
				gbs: r.NodeGBs,
				rho: r.NodeGBs / capGBs,
				pow: b.Total,
			}
		}
	}

	// Fit each (from, to, class) by streaming its samples, in probe
	// order, into fixed-size normal equations: no design matrix is ever
	// materialised.
	for from := 0; from < n; from++ {
		m.Pairs[from] = make([]PairCoeffs, n)
		for to := 0; to < n; to++ {
			var cpiFit, powFit [NumClasses]stats.Normal3
			for i, src := range eval[from] {
				dst := eval[to][i]
				if src.rho > trainSatCutoff || dst.rho > trainSatCutoff {
					continue
				}
				cl := m.ClassOf(src.gbs)
				cpiFit[cl].Add([3]float64{src.cpi, src.tpi, 1}, dst.cpi)
				powFit[cl].Add([3]float64{src.pow, src.tpi, 1}, dst.pow)
			}
			var pc PairCoeffs
			for cl := 0; cl < NumClasses; cl++ {
				if cpiFit[cl].N < 4 {
					return nil, fmt.Errorf("model: pair (%d,%d) class %d has only %d samples",
						from, to, cl, cpiFit[cl].N)
				}
				cb, err := cpiFit[cl].Solve()
				if err != nil {
					return nil, fmt.Errorf("model: pair (%d,%d) class %d: model: CPI fit: %w", from, to, cl, err)
				}
				pb, err := powFit[cl].Solve()
				if err != nil {
					return nil, fmt.Errorf("model: pair (%d,%d) class %d: model: power fit: %w", from, to, cl, err)
				}
				pc.ByClass[cl] = LinCoeffs{A: cb[0], B: cb[1], C: cb[2], D: pb[0], E: pb[1], F: pb[2]}
			}
			m.Pairs[from][to] = pc
		}
	}
	return m, m.Validate()
}

// TrainForCPU is a convenience wrapper building the config from a CPU
// model, memory config and power coefficients with default probes.
func TrainForCPU(machine perf.Machine, pw power.Coeffs) (*Model, error) {
	return Train(TrainConfig{Machine: machine, Power: pw})
}
