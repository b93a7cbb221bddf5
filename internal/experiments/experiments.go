// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated cluster: the motivation study (Table I,
// Fig. 1), the kernel evaluation (Tables II-IV), the application
// evaluation (Tables V-VI, Figs. 3-8), the instrumentation-scope
// comparison (Table VII), the headline summary, and the ablations of
// the design choices called out in DESIGN.md.
//
// A Context caches trained models, calibrated workloads and simulation
// runs, so figures that share configurations (most do) reuse results.
// All caches are singleflight: concurrent generators asking for the
// same model, calibration or run share one computation instead of
// racing or duplicating it, and Context.Parallel bounds how much
// simulation work the generators fan out at once (see sched.go).
// Because every run's randomness derives from explicit seeds, the
// generated tables are byte-identical at any parallelism.
package experiments

import (
	"fmt"
	"sort"

	"goear/internal/eargm"
	"goear/internal/model"
	"goear/internal/report"
	"goear/internal/sim"
	"goear/internal/telemetry"
	"goear/internal/units"
	"goear/internal/workload"
)

// Context carries experiment configuration and caches.
type Context struct {
	// Runs is the number of averaged runs per configuration (the paper
	// uses three).
	Runs int
	// Parallel bounds the goroutines fanned out over independent
	// simulation work (table rows, averaged seeds, cluster nodes):
	// 0 = GOMAXPROCS (the default), 1 = fully sequential, n = n
	// workers. Results are identical at any setting.
	Parallel int

	models flight[*model.Model]
	cals   flight[workload.Calibrated]
	runs   flight[sim.Result]

	// Cache activity, kept directly in telemetry counters (standalone
	// instruments; Stats() is a thin view over them). With global
	// telemetry enabled the same activity is also mirrored into the
	// goear_experiments_cache_* families across all contexts.
	modelRequests   telemetry.Counter
	calRequests     telemetry.Counter
	runRequests     telemetry.Counter
	modelsTrained   telemetry.Counter
	calibrationsRun telemetry.Counter
	runsExecuted    telemetry.Counter
}

// New returns a context with the paper's protocol (three runs).
func New() *Context { return &Context{Runs: 3} }

// NewQuick returns a single-run context for tests and fast previews.
func NewQuick() *Context { return &Context{Runs: 1} }

// NewFrom returns a context that shares src's trained models and
// workload calibrations (both immutable once built) but has a fresh run
// cache, so benchmarks re-execute simulations without re-training.
func NewFrom(src *Context) *Context {
	c := &Context{Runs: src.Runs, Parallel: src.Parallel}
	for k, v := range src.models.snapshot() {
		c.models.seed(k, v)
	}
	for k, v := range src.cals.snapshot() {
		c.cals.seed(k, v)
	}
	return c
}

// runCount is Runs with the paper's default applied.
func (c *Context) runCount() int {
	if c.Runs == 0 {
		return 3
	}
	return c.Runs
}

// cal returns the cached calibration of a catalogue workload,
// calibrating it exactly once however many goroutines ask.
func (c *Context) cal(name string) (workload.Calibrated, error) {
	c.calRequests.Inc()
	if t := tel.Load(); t != nil {
		t.calReq.Inc()
	}
	return c.cals.do(name, func() (workload.Calibrated, error) {
		spec, err := workload.Lookup(name)
		if err != nil {
			return workload.Calibrated{}, err
		}
		c.calibrationsRun.Inc()
		if t := tel.Load(); t != nil {
			t.calComp.Inc()
		}
		return spec.Calibrate()
	})
}

// modelFor returns the (lazily trained) energy model of a platform,
// training it exactly once however many goroutines ask.
func (c *Context) modelFor(pl workload.Platform) (*model.Model, error) {
	c.modelRequests.Inc()
	if t := tel.Load(); t != nil {
		t.modelReq.Inc()
	}
	return c.models.do(pl.Name, func() (*model.Model, error) {
		c.modelsTrained.Inc()
		if t := tel.Load(); t != nil {
			t.modelComp.Inc()
		}
		m, err := model.TrainForCPU(pl.Machine, pl.Power)
		if err != nil {
			return nil, fmt.Errorf("experiments: training model for %s: %w", pl.Name, err)
		}
		return m, nil
	})
}

// runKey canonicalises the options that distinguish cached runs. The
// options are resolved to their defaults first, so an unset threshold
// and an explicitly-supplied default value share a cache entry — they
// run identically.
func runKey(name string, o sim.Options, runs int) string {
	o = o.WithDefaults()
	fp := -1
	if o.FixedCPUPstate != nil {
		fp = *o.FixedCPUPstate
	}
	fu := uint64(0)
	if o.FixedUncoreRatio != nil {
		fu = *o.FixedUncoreRatio
	}
	return fmt.Sprintf("%s|%s|%.4f|%.4f|g%v|a%v|p%v|fp%d|fu%d|r%d|s%d|sc%.4f|w%.2f|st%.4f|n%.4f|d%v",
		name, o.Policy, *o.CPUTh, *o.UncTh, o.HWGuidedOff, o.NoAVX512Model,
		o.PinBothUncoreLimits, fp, fu, runs,
		o.Seed, o.SigChangeTh, o.MinWindowSec, o.StepSec, *o.NoiseSD, o.DecisionLog)
}

// run executes (or recalls) an averaged run of the named workload.
// Concurrent callers with the same configuration share one execution.
func (c *Context) run(name string, opt sim.Options) (sim.Result, error) {
	calw, err := c.cal(name)
	if err != nil {
		return sim.Result{}, err
	}
	if opt.Policy != "" && opt.Policy != "none" {
		m, err := c.modelFor(calw.Platform)
		if err != nil {
			return sim.Result{}, err
		}
		opt.Model = m
	}
	opt.Workers = c.workers()
	runs := c.runCount()
	c.runRequests.Inc()
	if t := tel.Load(); t != nil {
		t.runReq.Inc()
	}
	return c.runs.do(runKey(name, opt, runs), func() (sim.Result, error) {
		c.runsExecuted.Inc()
		if t := tel.Load(); t != nil {
			t.runComp.Inc()
		}
		return sim.RunAveraged(calw, opt, runs)
	})
}

// RunWorkload is the exported run entry point used by the goear facade:
// it executes (or recalls) an averaged run of the named catalogue
// workload, supplying the platform's trained model when a policy is
// requested.
func (c *Context) RunWorkload(name string, opt sim.Options) (sim.Result, error) {
	return c.run(name, opt)
}

// RunPowercapped executes the workload under a cluster power budget
// enforced by an EARGM instance (EAR's energy-control service). Results
// are not cached: the manager's trace is part of the outcome.
func (c *Context) RunPowercapped(name string, opt sim.Options, gmCfg eargm.Config) (sim.Result, eargm.Stats, error) {
	calw, err := c.cal(name)
	if err != nil {
		return sim.Result{}, eargm.Stats{}, err
	}
	if opt.Policy != "" && opt.Policy != "none" {
		m, err := c.modelFor(calw.Platform)
		if err != nil {
			return sim.Result{}, eargm.Stats{}, err
		}
		opt.Model = m
	}
	gm, err := eargm.New(gmCfg)
	if err != nil {
		return sim.Result{}, eargm.Stats{}, err
	}
	opt.Workers = c.workers()
	r, err := sim.RunCoordinated(calw, opt, gm)
	if err != nil {
		return sim.Result{}, eargm.Stats{}, err
	}
	return r, gm.Stats(), nil
}

// baseline is the paper's reference: nominal CPU frequency, hardware
// UFS, no policy.
func (c *Context) baseline(name string) (sim.Result, error) {
	return c.run(name, sim.Options{Policy: "none", Seed: 100})
}

// Delta expresses a configuration against the baseline with the paper's
// reporting conventions: penalties positive when worse, savings positive
// when better.
type Delta struct {
	TimePenaltyPct  float64
	PowerSavingPct  float64
	EnergySavingPct float64
	GBsPenaltyPct   float64
	PkgSavingPct    float64
	AvgCPUGHz       float64
	AvgIMCGHz       float64
	EfficiencyRatio float64 // energy saving / time penalty
}

func deltaOf(base, r sim.Result) Delta {
	d := Delta{
		TimePenaltyPct:  units.PercentChange(base.TimeSec, r.TimeSec),
		PowerSavingPct:  -units.PercentChange(base.AvgPowerW, r.AvgPowerW),
		EnergySavingPct: -units.PercentChange(base.EnergyJ, r.EnergyJ),
		GBsPenaltyPct:   -units.PercentChange(base.AvgGBs, r.AvgGBs),
		PkgSavingPct:    -units.PercentChange(base.AvgPkgPowerW, r.AvgPkgPowerW),
		AvgCPUGHz:       r.AvgCPUGHz,
		AvgIMCGHz:       r.AvgIMCGHz,
	}
	if d.TimePenaltyPct > 0.01 {
		d.EfficiencyRatio = d.EnergySavingPct / d.TimePenaltyPct
	}
	return d
}

// compare runs a configuration and returns its Delta against baseline.
func (c *Context) compare(name string, opt sim.Options) (Delta, error) {
	base, err := c.baseline(name)
	if err != nil {
		return Delta{}, err
	}
	r, err := c.run(name, opt)
	if err != nil {
		return Delta{}, err
	}
	return deltaOf(base, r), nil
}

// Generator is one experiment's regeneration function.
type Generator func(*Context) ([]report.Table, error)

// generators maps experiment ids to their functions.
var generators = map[string]Generator{
	"table1":    (*Context).Table1,
	"fig1":      (*Context).Fig1,
	"table2":    (*Context).Table2,
	"table3":    (*Context).Table3,
	"table4":    (*Context).Table4,
	"table5":    (*Context).Table5,
	"table6":    (*Context).Table6,
	"fig3":      (*Context).Fig3,
	"fig4":      (*Context).Fig4,
	"fig5":      (*Context).Fig5,
	"fig6":      (*Context).Fig6,
	"fig7":      (*Context).Fig7,
	"fig8":      (*Context).Fig8,
	"table7":    (*Context).Table7,
	"summary":   (*Context).Summary,
	"ablations": (*Context).Ablations,
}

// IDs lists the experiment identifiers in presentation order.
func IDs() []string {
	out := make([]string, 0, len(generators))
	for id := range generators {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Generate regenerates the experiment with the given id.
func (c *Context) Generate(id string) ([]report.Table, error) {
	g, ok := generators[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return g(c)
}
