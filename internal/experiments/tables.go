package experiments

import (
	"goear/internal/policy"
	"goear/internal/report"
	"goear/internal/sim"
	"goear/internal/workload"
)

// table1 reproduces Table I: kernel metrics under min_energy_to_solution
// with hardware IMC selection, for the motivation kernels (BT-MZ.C over
// 4 nodes, LU.D over 2 nodes).
func (c *Context) table1() ([]report.Table, error) {
	return tabulate(c, "Table I: kernel metrics under min_energy with hardware IMC selection",
		[]string{"kernel", "CPI", "GB/s", "CPU freq (GHz)", "IMC freq (GHz)"},
		[]string{workload.BTMZMotiv, workload.LUDMotiv}, func(name string) ([]string, error) {
			r, err := c.Run(name, minEnergy(10))
			if err != nil {
				return nil, err
			}
			return []string{name, report.F(r.AvgCPI, 2), report.F(r.AvgGBs, 2),
				report.GHz(r.AvgCPUGHz), report.GHz(r.AvgIMCGHz)}, nil
		})
}

// table2 reproduces Table II: single-node kernel characteristics at
// nominal frequency. A row is the kernel's baseline run, labelled with
// its programming model.
func (c *Context) table2() ([]report.Table, error) {
	rows := rowsOf(workload.Kernels(), func(name string) runCfg {
		spec, _ := workload.Lookup(name) // a name it lacks fails in Compare, naming it
		return runCfg{spec.ProgModel, name, sim.Baseline()}
	})
	return c.sweeps(sweep{"Table II: single node kernels",
		[]string{"kernel", "prog. model", "time (s)", "CPI", "GB/s", "avg DC power (W)"},
		rows, func(r runCfg, d Comparison) []string {
			return []string{r.name, r.label, report.F(d.Run.TimeSec, 0),
				report.F(d.Run.AvgCPI, 2), report.F(d.Run.AvgGBs, 2), report.F(d.Run.AvgPowerW, 0)}
		}})
}

// table3 reproduces Table III: kernel time penalty / power saving /
// energy saving for ME and ME+eU (cpu_policy_th 5%, unc_policy_th 2%).
func (c *Context) table3() ([]report.Table, error) {
	return tabulate(c, "Table III: single node kernels evaluation (cpu_th 5%, unc_th 2%)",
		[]string{"kernel",
			"time penalty ME", "time penalty ME+eU",
			"power saving ME", "power saving ME+eU",
			"energy saving ME", "energy saving ME+eU"},
		workload.Kernels(), func(name string) ([]string, error) {
			me, err := c.Compare(name, minEnergy(20))
			if err != nil {
				return nil, err
			}
			eu, err := c.Compare(name, minEnergyEU(20))
			if err != nil {
				return nil, err
			}
			return []string{name,
				report.Pct(me.TimePenaltyPct), report.Pct(eu.TimePenaltyPct),
				report.Pct(me.PowerSavingPct), report.Pct(eu.PowerSavingPct),
				report.Pct(me.EnergySavingPct), report.Pct(eu.EnergySavingPct)}, nil
		})
}

// freqDomains renders the average CPU and IMC frequency of each named
// workload under No policy / ME / ME+eU, the two policies at the given
// seed and the workload's paper cpu_policy_th: Tables IV and VI.
func (c *Context) freqDomains(title, first string, names []string, seed int64) ([]report.Table, error) {
	t := report.Table{Title: title, Columns: []string{first, "dom", "No policy", "ME", "ME+eU"}}
	type row struct{ base, me, eu sim.Result }
	rows, err := mapRows(c, names, func(name string) (row, error) {
		base, err := c.Run(name, sim.Baseline())
		if err != nil {
			return row{}, err
		}
		me, err := c.Run(name, atCPUTh(minEnergy(seed), paperCPUTh(name)))
		if err != nil {
			return row{}, err
		}
		eu, err := c.Run(name, atCPUTh(minEnergyEU(seed), paperCPUTh(name)))
		if err != nil {
			return row{}, err
		}
		return row{base, me, eu}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		base, me, eu := rows[i].base, rows[i].me, rows[i].eu
		if err := t.AddRow(name, "CPU", report.GHz(base.AvgCPUGHz),
			report.GHz(me.AvgCPUGHz), report.GHz(eu.AvgCPUGHz)); err != nil {
			return nil, err
		}
		if err := t.AddRow(name, "IMC", report.GHz(base.AvgIMCGHz),
			report.GHz(me.AvgIMCGHz), report.GHz(eu.AvgIMCGHz)); err != nil {
			return nil, err
		}
	}
	return []report.Table{t}, nil
}

// table4 reproduces Table IV: average CPU and IMC frequency for the
// kernels under No policy / ME / ME+eU (seed 20, cpu_policy_th 5%).
func (c *Context) table4() ([]report.Table, error) {
	return c.freqDomains("Table IV: avg CPU and IMC frequency domains (kernels)", "kernel",
		workload.Kernels(), 20)
}

// table5 reproduces Table V: MPI application characteristics at nominal
// frequency. A row is the application's baseline run.
func (c *Context) table5() ([]report.Table, error) {
	return c.sweeps(sweep{"Table V: MPI applications",
		[]string{"application", "time (s)", "CPI", "GB/s", "avg DC power (W)"},
		rowsOf(workload.Applications(), func(name string) runCfg {
			return runCfg{name, name, sim.Baseline()}
		}), func(r runCfg, d Comparison) []string {
			return []string{r.label, report.F(d.Run.TimeSec, 2), report.F(d.Run.AvgCPI, 2),
				report.F(d.Run.AvgGBs, 2), report.F(d.Run.AvgPowerW, 2)}
		}})
}

// paperCPUTh is the cpu_policy_th the paper runs a workload at: 3% for
// BQCD, the 5% default for every other application and for the kernels.
func paperCPUTh(name string) float64 {
	if name == workload.BQCD {
		return 0.03
	}
	return policy.DefaultCPUPolicyTh
}

// table6 reproduces Table VI: average CPU and IMC frequency per
// application under No policy / ME / ME+eU.
func (c *Context) table6() ([]report.Table, error) {
	return c.freqDomains("Table VI: avg CPU and IMC frequency domains (applications)", "application",
		workload.Applications(), appSeed)
}

// appEU is the row of ME+eU at the application's cpu_policy_th: the run
// behind Table VII and the headline summary.
func appEU(name string) runCfg {
	return runCfg{name, name, atCPUTh(minEnergyEU(appSeed), paperCPUTh(name))}
}

// table7 reproduces Table VII: DC node power savings vs RAPL PCK power
// savings under ME+eU, for the applications but GROMACS(I) (omitted as
// in the paper).
func (c *Context) table7() ([]report.Table, error) {
	return c.sweeps(sweep{"Table VII: DC node power savings vs RAPL PCK power savings (ME+eU)",
		[]string{"application", "DC node power", "RAPL PCK power"},
		rowsOf([]string{
			workload.BQCD, workload.BTMZD, workload.GromacsII, workload.HPCG,
			workload.POP, workload.DUMSES, workload.AFiD,
		}, appEU), func(r runCfg, d Comparison) []string {
			return []string{r.label, report.Pct(d.PowerSavingPct), report.Pct(d.PkgSavingPct)}
		}})
}

// summary reproduces the headline numbers of the abstract and §VIII:
// average and maximum energy saving and time penalty of ME+eU across
// the applications.
func (c *Context) summary() ([]report.Table, error) {
	ds, err := mapRows(c, workload.Applications(), func(name string) (sim.Delta, error) {
		r := appEU(name)
		cmp, err := c.Compare(r.name, r.opt)
		return cmp.Delta, err
	})
	if err != nil {
		return nil, err
	}
	t, err := summaryTable(ds)
	if err != nil {
		return nil, err
	}
	return []report.Table{t}, nil
}

// summaryTable is the summary over one comparison per application: each
// column's average and its largest value, negative ones included.
func summaryTable(ds []sim.Delta) (report.Table, error) {
	t := report.Table{
		Title:   "Summary: ME+eU across MPI applications (paper: avg energy save ~9%, avg time penalty ~3%)",
		Columns: []string{"metric", "average", "maximum"},
	}
	energy, penalty := make([]float64, len(ds)), make([]float64, len(ds))
	for i, d := range ds {
		energy[i], penalty[i] = d.EnergySavingPct, d.TimePenaltyPct
	}
	if err := t.AddRow("energy saving", report.Pct(mean(energy)), report.Pct(maxOf(energy))); err != nil {
		return report.Table{}, err
	}
	if err := t.AddRow("time penalty", report.Pct(mean(penalty)), report.Pct(maxOf(penalty))); err != nil {
		return report.Table{}, err
	}
	return t, nil
}
