package experiments

import (
	"goear/internal/report"
	"goear/internal/sim"
	"goear/internal/workload"
)

// ablations regenerates the design-choice ablations listed in DESIGN.md
// (A1-A5): each varies one decision the paper's §V-B fixes, at seed 40
// with default thresholds unless the row says otherwise. Their rows
// resolve in one fan-out.
func (c *Context) ablations() ([]report.Table, error) {
	return c.sweeps(a1(), a2(), a3(), a4(), a5())
}

// a1 is ablation A1: HW-guided vs linear (from-maximum) IMC search on a
// workload where the hardware settles well below the maximum (BT.CUDA),
// so the starting points genuinely differ. The settle column (from the
// run trace: the last change of the programmed uncore ceiling) shows
// the guided search converging faster — the paper's stated reason for
// preferring it.
func a1() sweep {
	guided, fromMax := minEnergyEU(40), minEnergyNGU(40)
	guided.Trace, fromMax.Trace = true, true // the settle column reads the trace
	return sweep{"Ablation A1: HW-guided vs not-guided IMC search start (BT.CUDA)",
		[]string{"configuration", "time penalty", "DC power saving",
			"energy saving", "settle (s)", "avg IMC (GHz)"},
		[]runCfg{
			{"ME+eU (HW-guided)", workload.BTCUDA, guided},
			{"ME+NG-U (from max)", workload.BTCUDA, fromMax},
		}, func(room []string, r runCfg, d Comparison) []string {
			return report.NewRow(room).Label(r.label).
				Pct(d.TimePenaltyPct).Pct(d.PowerSavingPct).Pct(d.EnergySavingPct).
				F(settleTime(d.Run.Nodes[0].Trace), 0).GHz(d.AvgIMCGHz).Cells()
		}}
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

// a2 is ablation A2: the AVX512-aware model vs the pre-extension
// default model on DGEMM (VPI = 1).
func a2() sweep {
	oldModel := minEnergy(40)
	oldModel.NoAVX512Model = true
	return bars("Ablation A2: AVX512 model on/off (DGEMM, min_energy)", "configuration", []runCfg{
		{"AVX512 model", workload.DGEMM, minEnergy(40)},
		{"default model", workload.DGEMM, oldModel},
	})
}

// a3 is ablation A3: moving only the maximum uncore ratio (the paper's
// choice) vs pinning min=max during the search.
func a3() sweep {
	pinBoth := minEnergyEU(40)
	pinBoth.PinBothUncoreLimits = true
	return bars("Ablation A3: move-max-only vs pin min=max uncore window (BT-MZ.C, ME+eU)", "configuration", []runCfg{
		{"move max only", workload.BTMZC, minEnergyEU(40)},
		{"pin min=max", workload.BTMZC, pinBoth},
	})
}

// a4 is ablation A4: unc_policy_th sensitivity on SP-MZ.
func a4() sweep {
	uncs := []float64{0.005, 0.01, 0.02, 0.03, 0.05}
	rows := make([]runCfg, len(uncs))
	for i, unc := range uncs {
		o := minEnergyEU(40)
		o.UncTh = unc
		rows[i] = runCfg{label("unc_th ", unc*100, 1, "%"), workload.SPMZC, o}
	}
	return bars("Ablation A4: unc_policy_th sensitivity (SP-MZ.C, ME+eU)", "configuration", rows)
}

// a5 is ablation A5: EARL's signature-change threshold. The mild
// two-phase workload shifts CPI by ~13% mid-run, so a 10% threshold
// re-applies the policy on the shift while 15% and 20% ride through it;
// the drastic PhaseChange workload is caught by every threshold. A row
// is labelled with its threshold.
func a5() sweep {
	names, ths := []string{workload.PhaseChangeMild, workload.PhaseChange}, []float64{0.10, 0.15, 0.20}
	rows := make([]runCfg, 0, len(names)*len(ths))
	for _, name := range names {
		for _, th := range ths {
			o := minEnergyEU(40)
			o.SigChangeTh = th
			rows = append(rows, runCfg{label("", th*100, 0, "%"), name, o})
		}
	}
	return sweep{"Ablation A5: signature-change threshold (min_energy_eufs)",
		[]string{"workload", "sig_th", "policy applies", "time penalty", "energy saving"},
		rows, func(room []string, r runCfg, d Comparison) []string {
			return report.NewRow(room).Label(r.name).Label(r.label).Int(d.Run.Nodes[0].PolicyApplies).
				Pct(d.TimePenaltyPct).Pct(d.EnergySavingPct).Cells()
		}}
}
