package experiments

import (
	"goear/internal/policy"
	"goear/internal/report"
	"goear/internal/sim"
	"goear/internal/workload"
)

// policyPairs is the row group of the studies that set two policies
// side by side per workload, default thresholds: each policy is a
// {label, registered name} pair and a row reads "workload / label".
func policyPairs(names []string, seed int64, policies ...[2]string) []runCfg {
	var rows []runCfg
	for _, name := range names {
		for _, p := range policies {
			rows = append(rows, runCfg{name + " / " + p[0], name, sim.Options{Policy: p[1], Seed: seed}})
		}
	}
	return rows
}

// baselines contrasts EAR's model-driven ME+eU with the controller-based
// related work the paper discusses in §VII (a DUF/Uncore-Power-Scavenger
// style pure-feedback controller, reimplemented as the "duf" policy):
// one CPU-bound kernel, one accelerator kernel, and one memory-bound
// application. The controller manages only the uncore, so on codes where
// DVFS matters (HPCG) it leaves the CPU saving on the table; on
// uncore-dominated codes the two approaches converge.
func (c *Context) baselines() ([]report.Table, error) {
	return c.sweeps(sweep{"Baselines: EAR ME+eU vs controller-based uncore scaling (duf)",
		"workload", barFigure,
		policyPairs([]string{workload.BTMZC, workload.BTCUDA, workload.HPCG}, 50,
			[2]string{"ME+eU", policy.MinEnergyEUFS}, [2]string{"duf", policy.DUF})})
}

// futureWork evaluates the extension the paper announces but does not
// evaluate: min_time_to_solution with the same explicit-UFS stage. The
// rows show min_time climbing frequency-sensitive codes back to nominal
// while the uncore stage still harvests the IMC headroom.
func (c *Context) futureWork() ([]report.Table, error) {
	return c.sweeps(sweep{"Future work (paper §VIII): min_time_to_solution with explicit UFS",
		"workload", barFigure,
		policyPairs([]string{workload.BTMZC, workload.HPCG, workload.POP}, 60,
			[2]string{"min_time", policy.MinTime}, [2]string{"min_time+eU", policy.MinTimeEUFS})})
}
