package loadgen

import (
	"fmt"

	"goear/internal/eargm"
	"goear/internal/model"
	"goear/internal/sim"
	"goear/internal/workload"
)

// SimConfig describes a coordinated cluster simulation campaign: the
// compute-side counterpart of the reporting-tier burst. The campaign
// runs N nodes of one catalogue workload in lock-step under an EARGM
// power budget (sim.RunCoordinated).
type SimConfig struct {
	// Workload is the catalogue workload name (default BT-MZ.C).
	Workload string
	// Nodes overrides the workload's catalogue node count when > 0,
	// scaling the campaign to cluster size.
	Nodes int
	// Policy is a registered EARL policy name ("" / "none" runs the
	// nominal-frequency baseline). The platform's energy model is
	// trained on demand when a policy is set.
	Policy string
	// Seed drives all measurement noise (results are pure functions of
	// the seed and the configuration).
	Seed int64
	// Workers bounds the stepping fan-out (one sim.Batch per worker).
	// Results are byte-identical at any setting.
	Workers int
	// BudgetW is the site power budget EARGM enforces; 0 runs
	// uncapped (a budget no cluster reaches).
	BudgetW float64
	// MaxCapPstate is the deepest pstate ceiling the manager may
	// impose (default 8); IntervalSec its control period (default 5).
	MaxCapPstate int
	IntervalSec  float64
}

// RunSim executes the campaign and returns the cluster result.
func RunSim(cfg SimConfig) (sim.Result, error) {
	name := cfg.Workload
	if name == "" {
		name = workload.BTMZC
	}
	spec, err := workload.Lookup(name)
	if err != nil {
		return sim.Result{}, err
	}
	if cfg.Nodes > 0 {
		spec.Nodes = cfg.Nodes
	}
	cal, err := spec.Calibrate()
	if err != nil {
		return sim.Result{}, err
	}
	opt := sim.Options{
		Policy:  cfg.Policy,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
	}
	if cfg.Policy != "" && cfg.Policy != "none" {
		m, err := model.TrainForCPU(cal.Platform.Machine, cal.Platform.Power)
		if err != nil {
			return sim.Result{}, fmt.Errorf("loadgen: training model for %s: %w", cal.Platform.Name, err)
		}
		opt.Model = m
	}
	budget := cfg.BudgetW
	if budget <= 0 {
		budget = 1e15 // uncapped: no cluster reaches this
	}
	capP := cfg.MaxCapPstate
	if capP == 0 {
		capP = 8
	}
	gm, err := eargm.New(eargm.Config{
		BudgetW:      budget,
		MaxCapPstate: capP,
		IntervalSec:  cfg.IntervalSec,
	})
	if err != nil {
		return sim.Result{}, err
	}
	return sim.RunCoordinated(cal, opt, gm)
}
