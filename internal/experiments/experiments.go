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

	// Each cache counts its own requests and computations (Stats reads
	// them); with global telemetry enabled the same activity is mirrored
	// into the goear_experiments_cache_* families across all contexts.
	models flight[string, *model.Model]
	cals   flight[string, workload.Calibrated]
	runs   flight[runKey, sim.Result]
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
	return c.cals.do(calCache, name, func() (workload.Calibrated, error) {
		spec, err := workload.Lookup(name)
		if err != nil {
			return workload.Calibrated{}, err
		}
		return spec.Calibrate()
	})
}

// modelFor returns the (lazily trained) energy model of a platform,
// training it exactly once however many goroutines ask.
func (c *Context) modelFor(pl workload.Platform) (*model.Model, error) {
	return c.models.do(modelCache, pl.Name, func() (*model.Model, error) {
		m, err := model.TrainForCPU(pl.Machine, pl.Power)
		if err != nil {
			return nil, fmt.Errorf("experiments: training model for %s: %w", pl.Name, err)
		}
		return m, nil
	})
}

// set is a pointer-typed option by value: the pointee and whether the
// pointer was set at all.
type set[T comparable] struct {
	v  T
	ok bool
}

func deref[T comparable](p *T) set[T] {
	if p == nil {
		return set[T]{}
	}
	return set[T]{*p, true}
}

// runKey is the identity of a cached run: workload, averaged run count
// and the options. opt is the defaulted sim.Options with every pointer
// field nil — its pointee is compared through the field of the same
// name below — and the fields that cannot change a result (Model, which
// follows from the workload's platform; Workers; ReferenceStep) zeroed.
// So a field added to sim.Options is part of the key by construction;
// one that must not be (or is a pointer) has to be handled in keyOf,
// and TestRunKeyCoversOptions fails until it is.
type runKey struct {
	name string
	runs int
	opt  sim.Options

	cpuTh, uncTh     set[float64]
	fixedCPUPstate   set[int]
	fixedUncoreRatio set[uint64]
}

// keyOf builds the cache key of a run. The options are resolved to
// their defaults first, so an unset threshold and an explicitly supplied
// default share a cache entry — they run identically.
func keyOf(name string, o sim.Options, runs int) runKey {
	o = o.WithDefaults()
	k := runKey{
		name: name, runs: runs,
		cpuTh: deref(o.CPUTh), uncTh: deref(o.UncTh),
		fixedCPUPstate:   deref(o.FixedCPUPstate),
		fixedUncoreRatio: deref(o.FixedUncoreRatio),
	}
	o.CPUTh, o.UncTh = nil, nil
	o.FixedCPUPstate, o.FixedUncoreRatio = nil, nil
	o.Model, o.Workers, o.ReferenceStep = nil, 0, false
	k.opt = o
	return k
}

// prepare resolves what every run of a catalogue workload needs: its
// calibration, the platform's trained model when a policy is requested,
// and the context's fan-out bound.
func (c *Context) prepare(name string, opt sim.Options) (workload.Calibrated, sim.Options, error) {
	calw, err := c.cal(name)
	if err != nil {
		return workload.Calibrated{}, opt, err
	}
	if opt.Policy != "" && opt.Policy != "none" {
		m, err := c.modelFor(calw.Platform)
		if err != nil {
			return workload.Calibrated{}, opt, err
		}
		opt.Model = m
	}
	opt.Workers = c.workers()
	return calw, opt, nil
}

// Run executes (or recalls) an averaged run of the named catalogue
// workload, supplying the platform's trained model when a policy is
// requested. Concurrent callers with the same configuration share one
// execution.
func (c *Context) Run(name string, opt sim.Options) (sim.Result, error) {
	calw, opt, err := c.prepare(name, opt)
	if err != nil {
		return sim.Result{}, err
	}
	runs := c.runCount()
	return c.runs.do(runCache, keyOf(name, opt, runs), func() (sim.Result, error) {
		return sim.RunAveraged(calw, opt, runs)
	})
}

// RunPowercapped executes the workload under a cluster power budget
// enforced by an EARGM instance (EAR's energy-control service). Results
// are not cached: the manager's trace is part of the outcome.
func (c *Context) RunPowercapped(name string, opt sim.Options, gmCfg eargm.Config) (sim.Result, eargm.Stats, error) {
	calw, opt, err := c.prepare(name, opt)
	if err != nil {
		return sim.Result{}, eargm.Stats{}, err
	}
	gm, err := eargm.New(gmCfg)
	if err != nil {
		return sim.Result{}, eargm.Stats{}, err
	}
	r, err := sim.RunCoordinated(calw, opt, gm)
	if err != nil {
		return sim.Result{}, eargm.Stats{}, err
	}
	return r, gm.Stats(), nil
}

// baseline is the paper's reference: nominal CPU frequency, hardware
// UFS, no policy.
func (c *Context) baseline(name string) (sim.Result, error) {
	return c.Run(name, sim.Baseline())
}

// compare runs a configuration and returns its Delta against baseline.
func (c *Context) compare(name string, opt sim.Options) (sim.Delta, error) {
	base, err := c.baseline(name)
	if err != nil {
		return sim.Delta{}, err
	}
	r, err := c.Run(name, opt)
	if err != nil {
		return sim.Delta{}, err
	}
	return sim.DeltaOf(base, r), nil
}

// registry lists the experiments in the paper's presentation order. It
// is the one place an experiment is named: Generate, Order, IDs and
// `benchtables -exp all` read it.
var registry = []struct {
	id  string
	gen func(*Context) ([]report.Table, error)
}{
	{"table1", (*Context).table1},
	{"fig1", (*Context).fig1},
	{"table2", (*Context).table2},
	{"table3", (*Context).table3},
	{"table4", (*Context).table4},
	{"table5", (*Context).table5},
	{"table6", (*Context).table6},
	{"fig3", (*Context).fig3},
	{"fig4", (*Context).fig4},
	{"fig5", (*Context).fig5},
	{"fig6", (*Context).fig6},
	{"fig7", (*Context).fig7},
	{"fig8", (*Context).fig8},
	{"table7", (*Context).table7},
	{"summary", (*Context).summary},
	{"ablations", (*Context).ablations},
	{"baselines", (*Context).baselines},
	{"future_work", (*Context).futureWork},
	{"model_accuracy", (*Context).modelAccuracy},
}

// Order lists the experiment identifiers in the paper's presentation
// order.
func Order() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// IDs lists the experiment identifiers sorted by name — not in
// presentation order (that is Order): the repository benchmark digests
// the rendered experiments in this order, so it must not follow a
// reshuffle of the registry.
func IDs() []string {
	out := Order()
	sort.Strings(out)
	return out
}

// Generate regenerates the experiment with the given id.
func (c *Context) Generate(id string) ([]report.Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.gen(c)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}
