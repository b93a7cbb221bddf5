package experiments

import (
	"fmt"

	"goear/internal/policy"
	"goear/internal/report"
	"goear/internal/sim"
	"goear/internal/workload"
)

// fig1 reproduces Figure 1: the motivation uncore sweep. For each
// motivation kernel, the CPU frequency the policy selects is pinned and
// the uncore frequency is fixed from 2.4 GHz down to 1.2 GHz in 100 MHz
// steps; each row reports average DC power saving, energy saving, time
// penalty and GB/s penalty against the run with hardware UFS, plus the
// average IMC frequency (the figure's second y-axis). The two staging
// runs are sequential (the sweep depends on the policy's selection);
// the sweep itself fans out one run per uncore point.
func (c *Context) fig1() ([]report.Table, error) {
	var out []report.Table
	for _, name := range []string{workload.BTMZMotiv, workload.LUDMotiv} {
		// Stage 1: let the policy pick the CPU frequency.
		me, err := c.Run(name, minEnergy(10))
		if err != nil {
			return nil, err
		}
		pinned := me.Nodes[0].FinalCPUPstate

		// Stage 2: reference run at that CPU frequency with hardware
		// UFS (default uncore range).
		ref, err := c.Run(name, sim.Options{Policy: "none", Seed: 10, FixedCPUPstate: &pinned})
		if err != nil {
			return nil, err
		}

		_, cal, err := c.catalogCal(nil, name)
		if err != nil {
			return nil, err
		}
		maxR := cal.Platform.Machine.CPU.UncoreMaxRatio
		minR := cal.Platform.Machine.CPU.UncoreMinRatio
		var ratios []uint64
		for r := maxR; ; r-- {
			ratios = append(ratios, r)
			if r == minR {
				break
			}
		}
		t, err := tabulate(c,
			fmt.Sprintf("Fig 1 (%s): fixed-uncore sweep at policy-selected CPU frequency (pstate %d); reference avg IMC %s GHz",
				name, pinned, report.GHz(ref.AvgIMCGHz)),
			[]string{"uncore (GHz)", "power saving", "energy saving",
				"time penalty", "GB/s penalty", "avg IMC (GHz)"},
			ratios, func(ratio uint64) ([]string, error) {
				r, err := c.Run(name, sim.Options{
					Policy: "none", Seed: 10,
					FixedCPUPstate: &pinned, FixedUncoreRatio: &ratio,
				})
				if err != nil {
					return nil, err
				}
				d := sim.DeltaOf(ref, r)
				return []string{report.GHz(float64(ratio) / 10),
					report.Pct(d.PowerSavingPct), report.Pct(d.EnergySavingPct),
					report.Pct(d.TimePenaltyPct), report.Pct(d.GBsPenaltyPct),
					report.GHz(r.AvgIMCGHz)}, nil
			})
		if err != nil {
			return nil, err
		}
		out = append(out, t...)
	}
	return out, nil
}

// appSeed is the seed of the application runs behind Figs. 3-8 and
// Tables VI-VII.
const appSeed = 30

// atCPUTh is o at cpu_policy_th th.
func atCPUTh(o sim.Options, th float64) sim.Options {
	o.CPUTh = th
	return o
}

// policyRows is the row group the application figures repeat: ME, the
// not-guided uncore search (ME+NG-U) when ng is set, and ME+eU on one
// workload at one cpu_policy_th. suffix tells a table's groups apart.
func policyRows(name string, cpuTh float64, suffix string, ng bool) []runCfg {
	rows := []runCfg{{"ME" + suffix, name, atCPUTh(minEnergy(appSeed), cpuTh)}}
	if ng {
		rows = append(rows, runCfg{"ME+NG-U" + suffix, name, atCPUTh(minEnergyNGU(appSeed), cpuTh)})
	}
	return append(rows, runCfg{"ME+eU" + suffix, name, atCPUTh(minEnergyEU(appSeed), cpuTh)})
}

// cpuThRows is policyRows at cpu_policy_th 3 % and 5 %, each group
// labelled with its threshold.
func cpuThRows(name string, ng bool) []runCfg {
	var rows []runCfg
	for _, th := range []float64{0.03, 0.05} {
		rows = append(rows, policyRows(name, th, fmt.Sprintf(" (cpu_th %d%%)", int(th*100)), ng)...)
	}
	return rows
}

// uncThRows is ME followed by ME+eU at each unc_policy_th, all at
// cpu_policy_th 3 %. Rows are labelled in whole percents, so the 0.1 %
// that stands in for the paper's 0 % threshold reads "0%".
func uncThRows(name string, uncs ...float64) []runCfg {
	rows := []runCfg{{"ME", name, atCPUTh(minEnergy(appSeed), 0.03)}}
	for _, unc := range uncs {
		o := atCPUTh(minEnergyEU(appSeed), 0.03)
		o.UncTh = unc
		rows = append(rows, runCfg{fmt.Sprintf("ME+eU %d%%", int(unc*100)), name, o})
	}
	return rows
}

// fig3 reproduces Figure 3: BQCD under ME and ME+eU with
// unc_policy_th 1%, 2% and 3% (cpu_policy_th 3%).
func (c *Context) fig3() ([]report.Table, error) {
	return c.sweeps(sweep{"Fig 3: BQCD, min_energy configurations (cpu_th 3%)",
		"configuration", barFigure, uncThRows(workload.BQCD, 0.01, 0.02, 0.03)})
}

// fig4 reproduces Figure 4: BT-MZ under ME and ME+eU with
// unc_policy_th 0%, 1% and 2% (cpu_policy_th 3%).
func (c *Context) fig4() ([]report.Table, error) {
	return c.sweeps(sweep{"Fig 4: BT-MZ, min_energy configurations (cpu_th 3%)",
		"configuration", barFigure, uncThRows(workload.BTMZD, 0.001, 0.01, 0.02)})
}

// fig5 reproduces Figure 5: GROMACS(I) with cpu_policy_th 3% and 5%,
// comparing ME, the not-guided uncore search (ME+NG-U) and the
// HW-guided search (ME+eU), all with unc_policy_th 2%.
func (c *Context) fig5() ([]report.Table, error) {
	return c.sweeps(sweep{"Fig 5: GROMACS(I), HW-guided vs not-guided uncore search (unc_th 2%)",
		"configuration", barFigure, cpuThRows(workload.GromacsI, true)})
}

// fig6 reproduces Figure 6: GROMACS(II) under ME and ME+eU
// (cpu_policy_th 5%, unc_policy_th 2%).
func (c *Context) fig6() ([]report.Table, error) {
	return c.sweeps(sweep{"Fig 6: GROMACS(II), min_energy configurations (cpu_th 5%)",
		"configuration", barFigure, policyRows(workload.GromacsII, policy.DefaultCPUPolicyTh, "", false)})
}

// fig7 reproduces Figure 7: HPCG (a) and POP (b) under ME and ME+eU
// (cpu_policy_th 5%, unc_policy_th 2%), with the efficiency ratio.
func (c *Context) fig7() ([]report.Table, error) {
	var ss []sweep
	for _, name := range []string{workload.HPCG, workload.POP} {
		ss = append(ss, sweep{fmt.Sprintf("Fig 7 (%s): min_energy configurations (cpu_th 5%%)", name),
			"configuration", efficiencyRatio, policyRows(name, policy.DefaultCPUPolicyTh, "", false)})
	}
	return c.sweeps(ss...)
}

// fig8 reproduces Figure 8: DUMSES (a) and AFiD (b) with
// cpu_policy_th 3% and 5% (unc_policy_th 2%).
func (c *Context) fig8() ([]report.Table, error) {
	var ss []sweep
	for _, name := range []string{workload.DUMSES, workload.AFiD} {
		ss = append(ss, sweep{fmt.Sprintf("Fig 8 (%s): cpu_th 3%% vs 5%% (unc_th 2%%)", name),
			"configuration", efficiencyRatio, cpuThRows(name, false)})
	}
	return c.sweeps(ss...)
}
