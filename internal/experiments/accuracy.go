package experiments

import (
	"math"

	"goear/internal/cpu"
	"goear/internal/metrics"
	"goear/internal/model"
	"goear/internal/perf"
	"goear/internal/power"
	"goear/internal/report"
	"goear/internal/workload"
)

// accuracyProbes are held-out phases (not in the training grid),
// spanning the catalogue's behaviour space.
func accuracyProbes(cores int) []perf.Phase {
	return []perf.Phase{
		{BaseCPI: 0.38, BytesPerInstr: 0.11, Overlap: 0.7, ActiveCores: cores},  // BT-like
		{BaseCPI: 0.42, BytesPerInstr: 0.45, Overlap: 0.82, ActiveCores: cores}, // SP-like
		{BaseCPI: 0.55, BytesPerInstr: 1.7, Overlap: 0.9, ActiveCores: cores},   // mixed
		{BaseCPI: 0.31, BytesPerInstr: 2.4, Overlap: 0.96, ActiveCores: cores},  // POP-like
		{BaseCPI: 0.85, BytesPerInstr: 5.8, Overlap: 0.993, ActiveCores: cores}, // HPCG-like
	}
}

// modelAccuracy reports the trained energy model's held-out prediction
// error (mean and maximum absolute relative CPI error, which equals the
// relative time error under the projection identity) as a function of
// projection distance, per platform — the fidelity evidence behind the
// policies' decisions.
func (c *Context) modelAccuracy() ([]report.Table, error) {
	var out []report.Table
	// The rows read pl through a pointer into platforms: one allocation
	// for the table, not a copy of a platform on the heap each.
	platforms := []workload.Platform{workload.SD530(), workload.CascadeLake()}
	for i := range platforms {
		pl := &platforms[i]
		m, err := c.modelFor(nil, *pl)
		if err != nil {
			return nil, err
		}
		cpuM := pl.Machine.CPU
		t, err := tabulate(c,
			"Model accuracy ("+pl.Name+"): held-out projection error from the nominal pstate",
			[]string{"target pstate", "target freq (GHz)",
				"mean |CPI err|", "max |CPI err|", "mean |power err|"},
			accuracyTargets(cpuM), func(_ fan, room []string, to int) ([]string, error) {
				cpiErrs, powErrs, err := heldOutErrors(*pl, m, to)
				if err != nil {
					return nil, err
				}
				f, err := cpuM.PstateFreq(to)
				if err != nil {
					return nil, err
				}
				return report.NewRow(room).Int(to).GHz(f.GHzF()).
					Pct(100 * mean(cpiErrs)).Pct(100 * maxOf(cpiErrs)).
					Pct(100 * mean(powErrs)).Cells(), nil
			})
		if err != nil {
			return nil, err
		}
		out = append(out, t...)
	}
	return out, nil
}

// accuracyTargets are the projection targets the accuracy table walks:
// every second pstate below nominal.
func accuracyTargets(cpuM cpu.Model) []int {
	var targets []int
	for to := 2; to < cpuM.PstateCount(); to += 2 {
		targets = append(targets, to)
	}
	return targets
}

// heldOutErrors projects every accuracyProbes phase from the nominal
// pstate to pstate to with m and returns the relative CPI and DC power
// errors against the substrate's own evaluation there, one per probe.
func heldOutErrors(pl workload.Platform, m *model.Model, to int) (cpiErrs, powErrs []float64, err error) {
	cpuM := pl.Machine.CPU
	fromRatio, err := cpuM.PstateRatio(1)
	if err != nil {
		return nil, nil, err
	}
	toRatio, err := cpuM.PstateRatio(to)
	if err != nil {
		return nil, nil, err
	}
	probes := accuracyProbes(cpuM.TotalCores())
	cpiErrs = make([]float64, len(probes))
	powErrs = make([]float64, len(probes))
	for i, ph := range probes {
		src, err := perf.Evaluate(pl.Machine, ph, perf.Operating{
			CoreRatio: fromRatio, UncoreRatio: cpuM.UncoreMaxRatio,
		})
		if err != nil {
			return nil, nil, err
		}
		dst, err := perf.Evaluate(pl.Machine, ph, perf.Operating{
			CoreRatio: toRatio, UncoreRatio: cpuM.UncoreMaxRatio,
		})
		if err != nil {
			return nil, nil, err
		}
		srcPow, err := pl.Power.Node(powerInput(pl, ph, src))
		if err != nil {
			return nil, nil, err
		}
		dstPow, err := pl.Power.Node(powerInput(pl, ph, dst))
		if err != nil {
			return nil, nil, err
		}
		sig := metrics.Signature{
			IterTimeSec: 1, CPI: src.CPI,
			TPI: ph.BytesPerInstr / perf.CacheLineBytes,
			GBs: src.NodeGBs, DCPowerW: srcPow.Total,
		}
		pred, err := m.Predict(sig, 1, to)
		if err != nil {
			return nil, nil, err
		}
		cpiErrs[i] = math.Abs(pred.CPI-dst.CPI) / dst.CPI
		powErrs[i] = math.Abs(pred.PowerW-dstPow.Total) / dstPow.Total
	}
	return cpiErrs, powErrs, nil
}

// HeldOutCPIError is the one-number form of the accuracy table: m's
// mean relative CPI error over every probe and target modelAccuracy
// tabulates for pl. The learning phase prints it after training.
func HeldOutCPIError(pl workload.Platform, m *model.Model) (float64, error) {
	var all []float64
	for _, to := range accuracyTargets(pl.Machine.CPU) {
		cpiErrs, _, err := heldOutErrors(pl, m, to)
		if err != nil {
			return 0, err
		}
		all = append(all, cpiErrs...)
	}
	return mean(all), nil
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// maxOf returns the maximum of xs, or 0 for an empty slice.
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func powerInput(pl workload.Platform, ph perf.Phase, r perf.Result) power.Input {
	return power.Input{
		CoreFreqGHz:   r.EffCoreFreq.GHzF(),
		UncoreFreqGHz: r.UncoreFreq.GHzF(),
		Sockets:       pl.Machine.CPU.Sockets,
		ActiveCores:   ph.ActiveCores,
		Activity:      1.0,
		GBs:           r.NodeGBs,
	}
}
