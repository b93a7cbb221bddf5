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
// simulation work one generator fans out at once (see sched.go).
// Because every run's randomness derives from explicit seeds, the
// generated tables are byte-identical at any parallelism.
package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"goear/internal/eargm"
	"goear/internal/model"
	"goear/internal/par"
	"goear/internal/policy"
	"goear/internal/report"
	"goear/internal/sim"
	"goear/internal/telemetry"
	"goear/internal/workload"
)

// Context carries experiment configuration and caches. Its caches key
// on values, not names: a model on the workload.Platform, a calibration
// and a run on the spec's ID (specID).
type Context struct {
	// Runs is the number of averaged runs per configuration; 0 means the
	// paper's three.
	Runs int
	// Parallel bounds the goroutines one generator fans out over
	// independent simulation work (table rows, averaged seeds, cluster
	// nodes), all levels together: 0 = GOMAXPROCS (the default), n = n
	// workers, 1 = every run in order. A table's rows run min(rows, n)
	// at a time and each row's runs get the spare n/that for their
	// seeds and nodes, at least one (par.Split, again inside
	// sim.RunAveraged); a run asked for on its own gets all n.
	//
	// It bounds a generator, not the process. A caller that runs
	// several generators at once multiplies it: cmd/benchtables runs
	// Parallel experiments at once, each with this bound. That is
	// faster than splitting the bound between them, because a
	// generator waiting on another's singleflight run would otherwise
	// hold its worker idle (DESIGN §3). Model training is not bounded
	// at all: model.TrainForCPU fans out over GOMAXPROCS at any
	// setting. Results are identical at any setting.
	Parallel int

	// Each cache counts its own requests and computations (Stats reads
	// them); a request whose options carry a telemetry set also counts
	// into that set's goear_experiments_cache_* families.
	models flight[workload.Platform, *model.Model]
	cals   flight[uint64, *workload.Calibrated]
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
	c.models.share(&src.models)
	c.cals.share(&src.cals)
	return c
}

// runCount is Runs with the paper's default applied.
func (c *Context) runCount() int {
	if c.Runs == 0 {
		return 3
	}
	return c.Runs
}

// specID is a spec's identity: the FNV-64a digest of its %#v rendering,
// which spells out every field, floats in shortest round-trip form
// (TestSpecIDCoversEveryField).
func specID(s workload.Spec) uint64 {
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "%#v", s) // hash writes cannot fail
	return h.Sum64()
}

// catalogIDs maps each catalogue name to its spec's ID, digested once
// per process; a calibration miss looks the spec up.
var catalogIDs = sync.OnceValue(func() map[string]uint64 {
	cat := workload.Catalog()
	ids := make(map[string]uint64, len(cat))
	for _, s := range cat {
		ids[s.Name] = specID(s)
	}
	return ids
})

// catalogCal returns the ID and cached calibration of a catalogue
// workload, calibrating it exactly once however many goroutines ask.
// The request counts into set. The calibration is shared: read it, do
// not write it.
func (c *Context) catalogCal(set *telemetry.Set, name string) (uint64, *workload.Calibrated, error) {
	id, ok := catalogIDs()[name]
	if !ok {
		_, err := workload.Lookup(name) // not in the catalogue: Lookup's error names it
		return 0, nil, err
	}
	calw, err := c.cals.do(set, calCache, id, func() (*workload.Calibrated, error) {
		spec, _ := workload.Lookup(name) // cannot fail: catalogIDs has the name
		return calibrate(spec)
	})
	return id, calw, err
}

// calibrate is spec's calibration on the heap, where the calibration
// cache keeps it and every run of it reads it in place.
func calibrate(spec workload.Spec) (*workload.Calibrated, error) {
	calw, err := spec.Calibrate()
	if err != nil {
		return nil, err
	}
	return &calw, nil
}

// specCal is catalogCal for a spec value.
func (c *Context) specCal(set *telemetry.Set, id uint64, spec workload.Spec) (*workload.Calibrated, error) {
	return c.cals.do(set, calCache, id, func() (*workload.Calibrated, error) { return calibrate(spec) })
}

// modelFor returns the (lazily trained) energy model of a platform,
// training it exactly once however many goroutines ask. The request
// counts into set.
func (c *Context) modelFor(set *telemetry.Set, pl workload.Platform) (*model.Model, error) {
	return c.models.do(set, modelCache, pl, func() (*model.Model, error) {
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

// runKey is the identity of a cached run: spec ID, averaged run count
// and the options. opt is the defaulted sim.Options with the CPU pin
// nil — its pointee is compared through the field of the same name
// below — and the fields that cannot change a result (Workers,
// ReferenceStep, Telemetry) zeroed; Model is compared by identity. So a
// field added to sim.Options is part of the key by construction; one
// that must not be (or is a pointer) has to be handled in keyOf, and
// TestRunKeyCoversOptions fails until it is.
type runKey struct {
	spec uint64
	runs int
	opt  sim.Options

	fixedCPUPstate set[int]
}

// keyOf builds the cache key of a run. The options are resolved to
// their defaults first, so an unset threshold and an explicitly supplied
// default share a cache entry — they run identically.
func keyOf(spec uint64, o sim.Options, runs int) runKey {
	o = o.WithDefaults()
	k := runKey{spec: spec, runs: runs, fixedCPUPstate: deref(o.FixedCPUPstate)}
	o.FixedCPUPstate = nil
	o.Workers, o.ReferenceStep, o.Telemetry = 0, false, nil
	k.opt = o
	return k
}

// A fan is a fan-out of a table's rows over the context's workers,
// split between the rows and their runs (par.Split): the rows run wide
// at a time, and every run a row asks for through the fan gets each
// node workers, so Parallel bounds the rows and their runs' nodes
// together. A run asked for on its own is a fan of one: it keeps every
// worker.
type fan struct {
	c             *Context
	n, wide, each int
}

// fan splits the context's workers over n rows.
func (c *Context) fan(n int) fan {
	wide, each := par.Split(c.workers(), n)
	return fan{c, n, wide, each}
}

// rows calls row(0) … row(n-1), wide at a time: the campaign's one
// fan-out. A row asks for its runs through f (run, compare), not
// through the Context, whose runs would take every worker again.
func (f fan) rows(row func(i int) error) error {
	return par.ForEach(f.wide, f.n, row)
}

// prepare completes the options of a run of calw: the platform's
// trained model when a policy is requested and the caller brought none,
// and the fan's share of the workers for the run's nodes.
func (f fan) prepare(calw *workload.Calibrated, opt sim.Options) (sim.Options, error) {
	if opt.Policy != "" && opt.Policy != "none" && opt.Model == nil {
		m, err := f.c.modelFor(opt.Telemetry, calw.Platform)
		if err != nil {
			return opt, err
		}
		opt.Model = m
	}
	opt.Workers = f.each
	return opt, nil
}

// runCal executes (or recalls) an averaged run of the spec with ID id.
func (f fan) runCal(id uint64, calw *workload.Calibrated, opt sim.Options) (sim.Result, error) {
	opt, err := f.prepare(calw, opt)
	if err != nil {
		return sim.Result{}, err
	}
	c := f.c
	runs := c.runCount()
	return c.runs.do(opt.Telemetry, runCache, keyOf(id, opt, runs), func() (sim.Result, error) {
		return sim.RunAveraged(calw, opt, runs)
	})
}

// run is Context.Run for a row of f.
func (f fan) run(name string, opt sim.Options) (sim.Result, error) {
	id, calw, err := f.c.catalogCal(opt.Telemetry, name)
	if err != nil {
		return sim.Result{}, err
	}
	return f.runCal(id, calw, opt)
}

// compare is Context.Compare for a row of f.
func (f fan) compare(name string, opt sim.Options) (Comparison, error) {
	base, err := f.run(name, sim.Baseline())
	if err != nil {
		return Comparison{}, err
	}
	r, err := f.run(name, opt)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Baseline: base, Run: r, Delta: sim.DeltaOf(base, r)}, nil
}

// Run executes (or recalls) an averaged run of the named catalogue
// workload, supplying the platform's trained model when a policy is
// requested and opt carries none. Concurrent callers with the same
// configuration share one execution.
func (c *Context) Run(name string, opt sim.Options) (sim.Result, error) {
	return c.fan(1).run(name, opt)
}

// RunSpec is Run for a spec value; one equal to a catalogue entry
// shares that entry's calibration and runs.
func (c *Context) RunSpec(spec workload.Spec, opt sim.Options) (sim.Result, error) {
	id := specID(spec)
	calw, err := c.specCal(opt.Telemetry, id, spec)
	if err != nil {
		return sim.Result{}, err
	}
	return c.fan(1).runCal(id, calw, opt)
}

// RunPowercapped executes the spec under a cluster power budget
// enforced by an EARGM instance (EAR's energy-control service). Runs
// are not cached: the manager's trace is part of the outcome.
func (c *Context) RunPowercapped(spec workload.Spec, opt sim.Options, gmCfg eargm.Config) (sim.Result, eargm.Stats, error) {
	calw, err := c.specCal(opt.Telemetry, specID(spec), spec)
	if err != nil {
		return sim.Result{}, eargm.Stats{}, err
	}
	if opt, err = c.fan(1).prepare(calw, opt); err != nil {
		return sim.Result{}, eargm.Stats{}, err
	}
	gm, err := eargm.New(gmCfg)
	if err != nil {
		return sim.Result{}, eargm.Stats{}, err
	}
	r, err := sim.RunCoordinated(*calw, opt, gm)
	if err != nil {
		return sim.Result{}, eargm.Stats{}, err
	}
	return r, gm.Stats(), nil
}

// The campaign's named configurations at a seed, with the paper's
// default thresholds: ME, ME+eU, and ME+NG-U — ME+eU searching the
// uncore from its maximum instead of the hardware's selection.
func minEnergy(seed int64) sim.Options {
	return sim.Options{Policy: policy.MinEnergy, Seed: seed}
}

func minEnergyEU(seed int64) sim.Options {
	return sim.Options{Policy: policy.MinEnergyEUFS, Seed: seed}
}

func minEnergyNGU(seed int64) sim.Options {
	return sim.Options{Policy: policy.MinEnergyEUFS, HWGuidedOff: true, Seed: seed}
}

// Comparison is a run beside the nominal baseline of the same
// workload, and the paper's deltas between the two.
type Comparison struct {
	Baseline, Run sim.Result
	sim.Delta
}

// Compare runs a catalogue workload under opt and under the nominal
// baseline (sim.Baseline) on the context's caches, and measures the one
// against the other: every table of deltas, and the goear facade's
// Compare, are made of it.
func (c *Context) Compare(name string, opt sim.Options) (Comparison, error) {
	return c.fan(1).compare(name, opt)
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
