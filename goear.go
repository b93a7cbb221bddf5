// Package goear is a faithful reimplementation and simulation testbed
// for EAR's explicit uncore frequency scaling (Corbalan et al., IEEE
// CLUSTER 2021): the EAR runtime library (Dynais loop detection,
// signature pipeline, AVX512-aware energy models, the policy plugin API)
// running the min_energy_to_solution policy — with and without the
// paper's explicit UFS extension — on a simulated Skylake-SP cluster
// with bit-exact MSR interfaces, a hardware uncore-frequency controller,
// RAPL and Intel Node Manager energy meters, and calibrated models of
// all thirteen workloads the paper evaluates.
//
// The facade in this package covers the common cases: run a catalogue
// workload under a policy, compare it against the nominal-frequency
// baseline, and regenerate any of the paper's tables and figures. The
// full machinery lives in the internal packages (see DESIGN.md for the
// map).
//
// Quick start:
//
//	s := goear.NewSession()
//	res, err := s.Compare("BT-MZ.C", goear.Config{Policy: goear.PolicyMinEnergyEUFS})
//	// res.EnergySavingPct, res.TimePenaltyPct, res.Run.AvgIMCGHz ...
package goear

import (
	"fmt"
	"strings"

	"goear/internal/cpu"
	"goear/internal/eargm"
	"goear/internal/experiments"
	"goear/internal/policy"
	"goear/internal/report"
	"goear/internal/sim"
	"goear/internal/units"
	"goear/internal/workload"
)

// Policy names accepted in Config.Policy.
const (
	PolicyNone          = "none"
	PolicyMonitoring    = policy.Monitoring
	PolicyMinEnergy     = policy.MinEnergy
	PolicyMinEnergyEUFS = policy.MinEnergyEUFS
	PolicyMinTime       = policy.MinTime
	PolicyMinTimeEUFS   = policy.MinTimeEUFS
)

// Config selects how a workload is executed.
type Config struct {
	// Policy is one of the Policy* constants; empty means "none"
	// (nominal frequency, hardware UFS — the paper's baseline).
	Policy string
	// CPUPolicyTh is the allowed relative time penalty of the CPU
	// frequency selection; zero means the paper's usual 5 %.
	CPUPolicyTh float64
	// UncPolicyTh is the additional CPI/GB/s degradation allowed to the
	// uncore selection; zero means the paper's 2 %.
	UncPolicyTh float64
	// NotGuided starts the uncore search from the hardware maximum
	// instead of the hardware-selected frequency (the paper's ME+NG-U).
	NotGuided bool
	// Seed drives measurement noise.
	Seed int64
	// FixedCPUPstate pins the CPU pstate when > 0. Zero pins pstate 1
	// (nominal) if FixedUncoreGHz is set and nothing otherwise, so
	// pstate 0 (turbo) cannot be pinned here; a negative value pins
	// nothing.
	FixedCPUPstate int
	// FixedUncoreGHz pins the uncore frequency when > 0; a frequency
	// outside the platform's uncore range makes the run fail.
	FixedUncoreGHz float64
}

// Result summarises one execution.
type Result struct {
	Workload  string
	Policy    string
	Nodes     int
	TimeSec   float64
	EnergyJ   float64 // per-node average DC energy
	AvgPowerW float64 // DC node power (Node Manager scope)
	AvgPkgW   float64 // RAPL package scope
	AvgCPUGHz float64
	AvgIMCGHz float64
	AvgCPI    float64
	AvgGBs    float64
}

// Comparison is a policy run measured against the nominal baseline, in
// the paper's reporting conventions (penalty positive when worse,
// saving positive when better).
type Comparison struct {
	Run             Result
	Baseline        Result
	TimePenaltyPct  float64
	PowerSavingPct  float64
	EnergySavingPct float64
}

// WorkloadInfo describes one catalogue entry.
type WorkloadInfo struct {
	Name      string
	Class     string
	ProgModel string
	Nodes     int
}

// Session caches trained energy models, workload calibrations and runs,
// so repeated operations are cheap. A zero-value Session is not usable;
// construct with NewSession.
type Session struct {
	ctx *experiments.Context
}

// NewSession returns a session using the paper's three-run protocol.
func NewSession() *Session { return &Session{ctx: experiments.New()} }

// NewQuickSession returns a single-run session (for tests and fast
// previews).
func NewQuickSession() *Session { return &Session{ctx: experiments.NewQuick()} }

// Workloads lists the catalogue.
func Workloads() []WorkloadInfo {
	var out []WorkloadInfo
	for _, s := range workload.Catalog() {
		out = append(out, WorkloadInfo{
			Name: s.Name, Class: string(s.Class), ProgModel: s.ProgModel, Nodes: s.Nodes,
		})
	}
	return out
}

// Policies lists the registered policy plugins plus "none".
func Policies() []string {
	return append([]string{PolicyNone}, policy.Names()...)
}

// ExperimentIDs lists the paper experiments Experiment can regenerate.
func ExperimentIDs() []string { return experiments.IDs() }

// toOptions converts the facade config.
func (c Config) toOptions() sim.Options {
	opt := sim.Options{
		Policy:      c.Policy,
		CPUTh:       c.CPUPolicyTh,
		UncTh:       c.UncPolicyTh,
		HWGuidedOff: c.NotGuided,
		Seed:        c.Seed,
	}
	if c.FixedCPUPstate > 0 || (c.FixedCPUPstate == 0 && c.FixedUncoreGHz > 0) {
		p := c.FixedCPUPstate
		if p == 0 {
			p = 1
		}
		opt.FixedCPUPstate = &p
	}
	if c.FixedUncoreGHz > 0 {
		r := units.GHz(c.FixedUncoreGHz).Ratio(cpu.BusClock)
		opt.FixedUncoreRatio = &r
	}
	return opt
}

// run executes a catalogue workload under the configuration on the
// session's shared run cache.
func (s *Session) run(name string, cfg Config) (sim.Result, error) {
	if s == nil || s.ctx == nil {
		return sim.Result{}, fmt.Errorf("goear: use NewSession")
	}
	return s.ctx.Run(name, cfg.toOptions())
}

// Run executes a catalogue workload under the configuration.
func (s *Session) Run(name string, cfg Config) (Result, error) {
	r, err := s.run(name, cfg)
	if err != nil {
		return Result{}, err
	}
	return fromSim(r), nil
}

// Compare runs a configuration and the nominal baseline, returning the
// paper-style deltas.
func (s *Session) Compare(name string, cfg Config) (Comparison, error) {
	if cfg.Policy == "" || cfg.Policy == PolicyNone {
		return Comparison{}, fmt.Errorf("goear: comparison needs a policy")
	}
	if s == nil || s.ctx == nil {
		return Comparison{}, fmt.Errorf("goear: use NewSession")
	}
	c, err := s.ctx.Compare(name, cfg.toOptions())
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{
		Run:             fromSim(c.Run),
		Baseline:        fromSim(c.Baseline),
		TimePenaltyPct:  c.TimePenaltyPct,
		PowerSavingPct:  c.PowerSavingPct,
		EnergySavingPct: c.EnergySavingPct,
	}, nil
}

// RunSpecFile executes a user-defined workload (the JSON format of
// `earsim -spec`, see `earsim -spec-template`) under the configuration.
// It shares the session's caches with Run: a definition equal to one
// already run — or to a catalogue entry — is served from them.
func (s *Session) RunSpecFile(path string, cfg Config) (Result, error) {
	if s == nil || s.ctx == nil {
		return Result{}, fmt.Errorf("goear: use NewSession")
	}
	spec, err := workload.LoadSpecFile(path)
	if err != nil {
		return Result{}, err
	}
	r, err := s.ctx.RunSpec(spec, cfg.toOptions())
	if err != nil {
		return Result{}, err
	}
	return fromSim(r), nil
}

// PowercapResult reports a run executed under a cluster power budget
// (EAR's energy-control service, EARGM).
type PowercapResult struct {
	Run Result
	// BudgetW is the enforced cluster budget.
	BudgetW float64
	// PeakW is the highest cluster power the manager observed.
	PeakW float64
	// OverBudgetPct is the share of control intervals above budget.
	OverBudgetPct float64
	// FinalCap is the pstate ceiling at job end (0 = released).
	FinalCap int
}

// RunPowercapped executes a catalogue workload with the global manager
// enforcing the given cluster DC power budget over all its nodes.
func (s *Session) RunPowercapped(name string, cfg Config, budgetW float64) (PowercapResult, error) {
	if s == nil || s.ctx == nil {
		return PowercapResult{}, fmt.Errorf("goear: use NewSession")
	}
	spec, err := workload.Lookup(name)
	if err != nil {
		return PowercapResult{}, err
	}
	r, st, err := s.ctx.RunPowercapped(spec, cfg.toOptions(), eargm.Config{
		BudgetW:      budgetW,
		MaxCapPstate: 10,
	})
	if err != nil {
		return PowercapResult{}, err
	}
	return PowercapResult{
		Run:           fromSim(r),
		BudgetW:       budgetW,
		PeakW:         st.PeakW,
		OverBudgetPct: st.OverBudgetPct,
		FinalCap:      st.FinalCap,
	}, nil
}

// Experiment regenerates one of the paper's tables or figures and
// returns it rendered as text.
func (s *Session) Experiment(id string) (string, error) {
	if s == nil || s.ctx == nil {
		return "", fmt.Errorf("goear: use NewSession")
	}
	tabs, err := s.ctx.Generate(id)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, t := range tabs {
		if i > 0 {
			b.WriteByte('\n')
		}
		if err := t.Render(&b); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// ExperimentTables regenerates an experiment as structured tables.
func (s *Session) ExperimentTables(id string) ([]report.Table, error) {
	if s == nil || s.ctx == nil {
		return nil, fmt.Errorf("goear: use NewSession")
	}
	return s.ctx.Generate(id)
}

func fromSim(r sim.Result) Result {
	return Result{
		Workload:  r.Workload,
		Policy:    r.Policy,
		Nodes:     len(r.Nodes),
		TimeSec:   r.TimeSec,
		EnergyJ:   r.EnergyJ,
		AvgPowerW: r.AvgPowerW,
		AvgPkgW:   r.AvgPkgPowerW,
		AvgCPUGHz: r.AvgCPUGHz,
		AvgIMCGHz: r.AvgIMCGHz,
		AvgCPI:    r.AvgCPI,
		AvgGBs:    r.AvgGBs,
	}
}
