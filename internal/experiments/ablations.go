package experiments

import (
	"goear/internal/report"
	"goear/internal/sim"
	"goear/internal/workload"
)

// ablations regenerates the design-choice ablations listed in DESIGN.md
// (A1-A5): each varies one decision the paper's §V-B fixes. A1 and A5
// have columns of their own; A2-A4 are sweeps. The three parts are
// independent, so they fan out in parallel (and each one's rows fan out
// again internally).
func (c *Context) ablations() ([]report.Table, error) {
	parts, err := mapRows(c, []func() ([]report.Table, error){
		c.ablationSearch,
		c.ablationSweeps,
		c.ablationSigChange,
	}, func(g func() ([]report.Table, error)) ([]report.Table, error) {
		return g()
	})
	if err != nil {
		return nil, err
	}
	var out []report.Table
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// ablationSearch (A1): HW-guided vs linear (from-maximum) IMC search on
// a workload where the hardware settles well below the maximum
// (BT.CUDA), so the starting points genuinely differ. The settle column
// (from the run trace: the last change of the programmed uncore
// ceiling) shows the guided search converging faster — the paper's
// stated reason for preferring it.
func (c *Context) ablationSearch() ([]report.Table, error) {
	name := workload.BTCUDA
	base, err := c.Run(name, sim.Baseline())
	if err != nil {
		return nil, err
	}
	return tabulate(c, "Ablation A1: HW-guided vs not-guided IMC search start (BT.CUDA)",
		[]string{"configuration", "time penalty", "DC power saving",
			"energy saving", "settle (s)", "avg IMC (GHz)"},
		[]runCfg{
			{"ME+eU (HW-guided)", name, minEnergyEU(40)},
			{"ME+NG-U (from max)", name, minEnergyNGU(40)},
		}, func(cfg runCfg) ([]string, error) {
			cfg.opt.Trace = true // the settle column reads the trace
			r, err := c.Run(cfg.name, cfg.opt)
			if err != nil {
				return nil, err
			}
			d := sim.DeltaOf(base, r)
			return []string{cfg.label,
				report.Pct(d.TimePenaltyPct), report.Pct(d.PowerSavingPct),
				report.Pct(d.EnergySavingPct),
				report.F(settleTime(r.Nodes[0].Trace), 0),
				report.GHz(d.AvgIMCGHz)}, nil
		})
}

// settleTime returns the simulated time of the last change of the
// programmed uncore ceiling, i.e. when the search stopped moving.
func settleTime(trace []sim.TracePoint) float64 {
	last := 0.0
	for i := 1; i < len(trace); i++ {
		if trace[i].UncMax != trace[i-1].UncMax {
			last = trace[i].TimeSec
		}
	}
	return last
}

// ablationSweeps renders A2-A4, all at seed 40 with default thresholds
// unless the row says otherwise: the AVX512-aware model vs the
// pre-extension default model on DGEMM (VPI = 1); moving only the
// maximum uncore ratio (the paper's choice) vs pinning min=max during
// the search; and unc_policy_th sensitivity on SP-MZ.
func (c *Context) ablationSweeps() ([]report.Table, error) {
	var a4 []runCfg
	for _, unc := range []float64{0.005, 0.01, 0.02, 0.03, 0.05} {
		o := minEnergyEU(40)
		o.UncTh = unc
		a4 = append(a4, runCfg{"unc_th " + report.F(unc*100, 1) + "%", workload.SPMZC, o})
	}
	oldModel := minEnergy(40)
	oldModel.NoAVX512Model = true
	pinBoth := minEnergyEU(40)
	pinBoth.PinBothUncoreLimits = true
	return c.sweeps(
		sweep{"Ablation A2: AVX512 model on/off (DGEMM, min_energy)", "configuration", barFigure, []runCfg{
			{"AVX512 model", workload.DGEMM, minEnergy(40)},
			{"default model", workload.DGEMM, oldModel},
		}},
		sweep{"Ablation A3: move-max-only vs pin min=max uncore window (BT-MZ.C, ME+eU)", "configuration", barFigure, []runCfg{
			{"move max only", workload.BTMZC, minEnergyEU(40)},
			{"pin min=max", workload.BTMZC, pinBoth},
		}},
		sweep{"Ablation A4: unc_policy_th sensitivity (SP-MZ.C, ME+eU)", "configuration", barFigure, a4},
	)
}

// ablationSigChange (A5): EARL's signature-change threshold. The mild
// two-phase workload shifts CPI by ~13% mid-run, so a 10% threshold
// re-applies the policy on the shift while 15% and 20% ride through it;
// the drastic PhaseChange workload is caught by every threshold.
func (c *Context) ablationSigChange() ([]report.Table, error) {
	type cell struct {
		name string
		th   float64
	}
	var cells []cell
	for _, name := range []string{workload.PhaseChangeMild, workload.PhaseChange} {
		for _, th := range []float64{0.10, 0.15, 0.20} {
			cells = append(cells, cell{name, th})
		}
	}
	return tabulate(c, "Ablation A5: signature-change threshold (min_energy_eufs)",
		[]string{"workload", "sig_th", "policy applies", "time penalty", "energy saving"},
		cells, func(cl cell) ([]string, error) {
			base, err := c.Run(cl.name, sim.Baseline())
			if err != nil {
				return nil, err
			}
			o := minEnergyEU(40)
			o.SigChangeTh = cl.th
			r, err := c.Run(cl.name, o)
			if err != nil {
				return nil, err
			}
			d := sim.DeltaOf(base, r)
			return []string{cl.name, report.F(cl.th*100, 0) + "%",
				report.F(float64(r.Nodes[0].PolicyApplies), 0),
				report.Pct(d.TimePenaltyPct), report.Pct(d.EnergySavingPct)}, nil
		})
}
