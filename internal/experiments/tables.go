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
		[]string{workload.BTMZMotiv, workload.LUDMotiv}, func(f fan, room []string, name string) ([]string, error) {
			r, err := f.run(name, minEnergy(10))
			if err != nil {
				return nil, err
			}
			return report.NewRow(room).Label(name).F(r.AvgCPI, 2).F(r.AvgGBs, 2).
				GHz(r.AvgCPUGHz).GHz(r.AvgIMCGHz).Cells(), nil
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
		rows, func(room []string, r runCfg, d Comparison) []string {
			return report.NewRow(room).Label(r.name).Label(r.label).F(d.Run.TimeSec, 0).
				F(d.Run.AvgCPI, 2).F(d.Run.AvgGBs, 2).F(d.Run.AvgPowerW, 0).Cells()
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
		workload.Kernels(), func(f fan, room []string, name string) ([]string, error) {
			me, err := f.compare(name, minEnergy(20))
			if err != nil {
				return nil, err
			}
			eu, err := f.compare(name, minEnergyEU(20))
			if err != nil {
				return nil, err
			}
			return report.NewRow(room).Label(name).
				Pct(me.TimePenaltyPct).Pct(eu.TimePenaltyPct).
				Pct(me.PowerSavingPct).Pct(eu.PowerSavingPct).
				Pct(me.EnergySavingPct).Pct(eu.EnergySavingPct).Cells(), nil
		})
}

// freqDomains renders the average CPU and IMC frequency of each named
// workload under No policy / ME / ME+eU, the two policies at the given
// seed and the workload's paper cpu_policy_th: Tables IV and VI. A
// workload's two rows are built on the worker that ran it.
func (c *Context) freqDomains(title, first string, names []string, seed int64) ([]report.Table, error) {
	columns := []string{first, "dom", "No policy", "ME", "ME+eU"}
	rows := slab(1, func(int) (int, int) { return 2 * len(names), len(columns) })
	f := c.fan(len(names))
	err := f.rows(func(i int) error {
		name := names[i]
		base, err := f.run(name, sim.Baseline())
		if err != nil {
			return err
		}
		me, err := f.run(name, atCPUTh(minEnergy(seed), paperCPUTh(name)))
		if err != nil {
			return err
		}
		eu, err := f.run(name, atCPUTh(minEnergyEU(seed), paperCPUTh(name)))
		if err != nil {
			return err
		}
		rows[2*i] = report.NewRow(rows[2*i]).Label(name).Label("CPU").
			GHz(base.AvgCPUGHz).GHz(me.AvgCPUGHz).GHz(eu.AvgCPUGHz).Cells()
		rows[2*i+1] = report.NewRow(rows[2*i+1]).Label(name).Label("IMC").
			GHz(base.AvgIMCGHz).GHz(me.AvgIMCGHz).GHz(eu.AvgIMCGHz).Cells()
		return nil
	})
	if err != nil {
		return nil, err
	}
	t, err := table(title, columns, rows)
	if err != nil {
		return nil, err
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
		}), func(room []string, r runCfg, d Comparison) []string {
			return report.NewRow(room).Label(r.label).F(d.Run.TimeSec, 2).F(d.Run.AvgCPI, 2).
				F(d.Run.AvgGBs, 2).F(d.Run.AvgPowerW, 2).Cells()
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
		}, appEU), func(room []string, r runCfg, d Comparison) []string {
			return report.NewRow(room).Label(r.label).Pct(d.PowerSavingPct).Pct(d.PkgSavingPct).Cells()
		}})
}

// summary reproduces the headline numbers of the abstract and §VIII:
// average and maximum energy saving and time penalty of ME+eU across
// the applications.
func (c *Context) summary() ([]report.Table, error) {
	apps := workload.Applications()
	ds := make([]sim.Delta, len(apps))
	f := c.fan(len(apps))
	err := f.rows(func(i int) error {
		r := appEU(apps[i])
		cmp, err := f.compare(r.name, r.opt)
		ds[i] = cmp.Delta
		return err
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
	energy, penalty := make([]float64, len(ds)), make([]float64, len(ds))
	for i, d := range ds {
		energy[i], penalty[i] = d.EnergySavingPct, d.TimePenaltyPct
	}
	rows := slab(1, func(int) (int, int) { return 2, 3 })
	rows[0] = report.NewRow(rows[0]).Label("energy saving").Pct(mean(energy)).Pct(maxOf(energy)).Cells()
	rows[1] = report.NewRow(rows[1]).Label("time penalty").Pct(mean(penalty)).Pct(maxOf(penalty)).Cells()
	return table("Summary: ME+eU across MPI applications (paper: avg energy save ~9%, avg time penalty ~3%)",
		[]string{"metric", "average", "maximum"}, rows)
}
