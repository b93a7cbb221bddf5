package model

import (
	"fmt"
	"runtime"

	"goear/internal/cpu"
	"goear/internal/par"
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
// per-class projection coefficients by least squares. Both stages fan
// out by pstate row over GOMAXPROCS workers; each row writes only its
// own slots and feeds its accumulators in probe order, so the model is
// bit-identical at any worker count, and the error is the one a
// sequential run meets first.
func train(machine perf.Machine, pw power.Coeffs, probes []Probe) (*Model, error) {
	c := machine.CPU
	n := c.PstateCount()
	fuMax := units.FromRatio(c.UncoreMaxRatio, cpu.BusClock)
	capGBs := machine.Mem.CapabilityGBs(fuMax)
	m := &Model{
		FreqGHz:      pstateTable(c),
		AVX512Pstate: avx512Pstate(c),
		CapGBs:       capGBs,
		SatGBs:       capGBs * machine.Mem.MaxUtilization,
		Pairs:        make([][]PairCoeffs, n),
	}
	workers := runtime.GOMAXPROCS(0)

	// Activity reaches only the power model, so each distinct phase is
	// evaluated once per pstate: DefaultProbes lists each phase once per
	// activity, side by side, and a probe whose phase repeats its
	// predecessor's reuses that execution result.
	phases := make([]perf.Phase, 0, len(probes))
	for i, pr := range probes {
		if newPhase(probes, i) {
			phases = append(phases, pr.Phase)
		}
	}
	np := len(probes)
	results := make([]perf.Result, n*len(phases)) // [pstate][phase]
	eval := make([]sample, n*np)                  // [pstate][probe]
	uncore := c.UncoreMaxRatio
	err := par.ForEach(workers, n, func(p int) error {
		ratio, err := c.PstateRatio(p)
		if err != nil {
			return err
		}
		res := results[p*len(phases) : (p+1)*len(phases)]
		if k, err := perf.EvaluateAll(machine, perf.Operating{CoreRatio: ratio, UncoreRatio: uncore}, phases, res); err != nil {
			return fmt.Errorf("model: probe %d at pstate %d: %w", firstProbe(probes, k), p, err)
		}
		row := eval[p*np : (p+1)*np]
		j := -1
		for i, pr := range probes {
			if newPhase(probes, i) {
				j++
			}
			r := &res[j]
			b, err := pw.Node(power.Input{
				CoreFreqGHz:   r.EffCoreFreq.GHzF(),
				UncoreFreqGHz: r.UncoreFreq.GHzF(),
				Sockets:       c.Sockets,
				ActiveCores:   pr.Phase.ActiveCores,
				Activity:      pr.Activity,
				GBs:           r.NodeGBs,
			})
			if err != nil {
				return fmt.Errorf("model: probe %d power at pstate %d: %w", i, p, err)
			}
			tpi := pr.Phase.BytesPerInstr / perf.CacheLineBytes
			row[i] = sample{
				cpi: affineRow(r.CPI, tpi),
				pow: affineRow(b.Total, tpi),
				cl:  m.classOf(r.NodeGBs),
				fit: r.NodeGBs/capGBs <= trainSatCutoff,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Fit each (from, to, class) by streaming its samples, in probe
	// order, into fixed-size normal equations: no design matrix is ever
	// materialised, and a source sample's products were formed with it.
	err = par.ForEach(workers, n, func(from int) error {
		row := make([]PairCoeffs, n)
		src := eval[from*np : (from+1)*np]
		for to := 0; to < n; to++ {
			dst := eval[to*np : (to+1)*np]
			var cpiFit, powFit [numClasses]normal3
			for i := range src {
				s, d := &src[i], &dst[i]
				if !s.fit || !d.fit {
					continue
				}
				cpiFit[s.cl].addAffine(&s.cpi, d.cpi.x)
				powFit[s.cl].addAffine(&s.pow, d.pow.x)
			}
			for cl := 0; cl < numClasses; cl++ {
				if cpiFit[cl].n < 4 {
					return fmt.Errorf("model: pair (%d,%d) class %d has only %d samples",
						from, to, cl, cpiFit[cl].n)
				}
				cb, err := cpiFit[cl].solve()
				if err != nil {
					return fmt.Errorf("model: pair (%d,%d) class %d: CPI fit: %w", from, to, cl, err)
				}
				pb, err := powFit[cl].solve()
				if err != nil {
					return fmt.Errorf("model: pair (%d,%d) class %d: power fit: %w", from, to, cl, err)
				}
				row[to].ByClass[cl] = LinCoeffs{A: cb[0], B: cb[1], C: cb[2], D: pb[0], E: pb[1], F: pb[2]}
			}
		}
		m.Pairs[from] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, m.Validate()
}

// sample is one probe evaluated at one pstate, as both fits see it: the
// CPI row (CPI, TPI, 1) and the power row (watts, TPI, 1), its
// utilisation class, and whether it is below the saturation cutoff, the
// only samples a fit takes.
type sample struct {
	cpi, pow affine
	cl       int
	fit      bool
}

// newPhase reports whether probe i's phase differs from its
// predecessor's, so that it is evaluated and not reused.
func newPhase(probes []Probe, i int) bool {
	return i == 0 || probes[i].Phase != probes[i-1].Phase
}

// firstProbe returns the index of the first probe of the k-th distinct
// phase.
func firstProbe(probes []Probe, k int) int {
	for i := range probes {
		if newPhase(probes, i) {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return len(probes)
}
