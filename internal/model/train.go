package model

import (
	"fmt"

	"goear/internal/cpu"
	"goear/internal/perf"
	"goear/internal/power"
	"goear/internal/units"
)

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

// TrainForCPU runs the learning phase for a node with the given machine
// and power coefficients over DefaultProbes, like EAR's learning-phase
// kernel suite.
func TrainForCPU(machine perf.Machine, pw power.Coeffs) (*Model, error) {
	if err := machine.Validate(); err != nil {
		return nil, err
	}
	if err := pw.Validate(); err != nil {
		return nil, err
	}
	return train(machine, pw, DefaultProbes(machine.CPU.TotalCores()))
}

// train evaluates every probe at every pstate pair (uncore held at the
// hardware maximum, as EAR's CPU-frequency model assumes) and fits the
// per-class projection coefficients by least squares.
func train(machine perf.Machine, pw power.Coeffs, probes []Probe) (*Model, error) {
	c := machine.CPU
	n := c.PstateCount()
	fuMax := units.FromRatio(c.UncoreMaxRatio, cpu.BusClock)
	capGBs := machine.Mem.CapabilityGBs(fuMax)
	m := &Model{
		FreqGHz:      pstateTable(c),
		AVX512Pstate: int(c.NominalRatio-c.AVX512Ratio) + 1,
		CapGBs:       capGBs,
		SatGBs:       capGBs * machine.Mem.MaxUtilization,
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
			r, err := perf.Evaluate(machine, pr.Phase, perf.Operating{CoreRatio: ratio, UncoreRatio: uncore})
			if err != nil {
				return nil, fmt.Errorf("model: probe %d at pstate %d: %w", i, p, err)
			}
			b, err := pw.Node(power.Input{
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
			var cpiFit, powFit [numClasses]normal3
			for i, src := range eval[from] {
				dst := eval[to][i]
				if src.rho > trainSatCutoff || dst.rho > trainSatCutoff {
					continue
				}
				cl := m.classOf(src.gbs)
				cpiFit[cl].add([3]float64{src.cpi, src.tpi, 1}, dst.cpi)
				powFit[cl].add([3]float64{src.pow, src.tpi, 1}, dst.pow)
			}
			var pc PairCoeffs
			for cl := 0; cl < numClasses; cl++ {
				if cpiFit[cl].n < 4 {
					return nil, fmt.Errorf("model: pair (%d,%d) class %d has only %d samples",
						from, to, cl, cpiFit[cl].n)
				}
				cb, err := cpiFit[cl].solve()
				if err != nil {
					return nil, fmt.Errorf("model: pair (%d,%d) class %d: model: CPI fit: %w", from, to, cl, err)
				}
				pb, err := powFit[cl].solve()
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
