// Package sim executes calibrated workloads on simulated cluster nodes:
// sockets with MSR files, the hardware uncore controller, the RAPL and
// Node Manager meters, and (optionally) an EARL instance driving an
// energy policy. It is the test bench every experiment in the paper is
// reproduced on.
package sim

import (
	"fmt"

	"goear/internal/earl"
	"goear/internal/metrics"
	"goear/internal/model"
	"goear/internal/par"
	"goear/internal/policy"
	"goear/internal/telemetry"
	"goear/internal/workload"
)

// Options configures one run.
type Options struct {
	// Policy is a registered policy name, or "" / "none" to run without
	// EARL (the paper's nominal-frequency baseline).
	Policy string
	// CPUTh and UncTh are the policy thresholds; zero means the
	// paper's defaults, policy.DefaultCPUPolicyTh and
	// policy.DefaultUncPolicyTh.
	CPUTh float64
	UncTh float64
	// HWGuidedOff disables the HW-guided IMC search start (Fig. 5's
	// ME+NG-U configuration).
	HWGuidedOff bool
	// NoAVX512Model disables the paper's AVX512 model extension
	// (ablation A2).
	NoAVX512Model bool
	// Model is the trained energy model; required when a policy runs.
	Model *model.Model
	// Seed drives the run's measurement noise.
	Seed int64
	// FixedCPUPstate pins the CPU pstate for the whole run (Fig. 1).
	FixedCPUPstate *int
	// FixedUncoreRatio pins MSR 0x620 min=max (Fig. 1 sweeps); zero
	// leaves the hardware UFS range open. A pin must lie in the CPU's
	// [UncoreMinRatio, UncoreMaxRatio].
	FixedUncoreRatio uint64
	// PinBothUncoreLimits makes the eUFS search pin min=max instead of
	// moving only the maximum (ablation A3 of the paper's §V-B item 3).
	PinBothUncoreLimits bool
	// SigChangeTh overrides EARL's signature-change threshold; zero
	// means policy.DefaultSigChangeTh.
	SigChangeTh float64
	// MinWindowSec overrides EARL's signature window; zero means
	// metrics.MinWindowSeconds.
	MinWindowSec float64
	// DecisionLog collects every EARL signature-handling event into
	// NodeResult.Decisions (see Result.RecordDecisions). Collection is
	// per-node and ordered, so the log is byte-identical at any Workers
	// count. Off by default: the copy allocates per node run.
	DecisionLog bool
	// Trace records a per-node time series (one point per traceStepSec
	// of simulated time) in NodeResult.Trace. A traced node never arms:
	// trace points need per-step sampling.
	Trace bool
	// Workers bounds the goroutines a run fans out (0 or 1 =
	// sequential): over its nodes, or over RunAveraged's seeds and
	// their nodes together. RunAveraged splits it (par.Split): its
	// seeds run min(runs, Workers) at a time and each run's nodes get
	// the spare Workers/that, at least one. Every node and every
	// averaged run draws its randomness from an RNG seeded purely by
	// (Seed, node id, run index), so results are byte-identical at any
	// worker count; Workers only changes wall-clock time.
	Workers int
	// ReferenceStep makes every node step tick by tick and never arm
	// for replay (see replay.go). Results are byte-identical either way
	// (the identity tests assert it); the switch exists as the oracle
	// for verification and benchmarking.
	ReferenceStep bool
	// Telemetry is the set the run's nodes and policies count into; nil
	// turns telemetry off. It never changes a result.
	Telemetry *telemetry.Set
}

// workers returns the effective fan-out bound.
func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// The fixed simulation constants.
const (
	// stepSec is the simulation step: 10 ms, the uncore controller tick.
	stepSec = 0.01
	// noiseSD is the standard deviation of the per-iteration
	// multiplicative time and power noise (0.3 %).
	noiseSD = 0.003
	// traceStepSec is the trace sampling period: a 1 Hz series.
	traceStepSec = 1.0
)

// WithDefaults returns the options with every unset field resolved to
// its default. Run and friends apply it internally; it is exported so
// callers that key caches on option values (the experiment engine) can
// canonicalise first — two Options that resolve identically behave
// identically.
func (o Options) WithDefaults() Options {
	if o.Policy == "" {
		o.Policy = "none"
	}
	if o.CPUTh == 0 {
		o.CPUTh = policy.DefaultCPUPolicyTh
	}
	if o.UncTh == 0 {
		o.UncTh = policy.DefaultUncPolicyTh
	}
	if o.SigChangeTh == 0 {
		o.SigChangeTh = policy.DefaultSigChangeTh
	}
	if o.MinWindowSec == 0 {
		o.MinWindowSec = metrics.MinWindowSeconds
	}
	return o
}

// TracePoint is one sample of a node's operating state.
type TracePoint struct {
	TimeSec   float64
	PowerW    float64 // instantaneous DC power over the last trace step
	CPUGHz    float64 // requested-effective core frequency (measured)
	IMCGHz    float64 // operating uncore frequency (measured)
	CPI       float64 // cumulative-average CPI at this point
	GBs       float64 // bandwidth over the last trace step
	CPUPstate int
	UncMax    uint64 // programmed uncore ceiling (MSR 0x620 max)
}

// NodeResult is one node's run outcome.
type NodeResult struct {
	TimeSec      float64
	EnergyJ      float64 // DC energy (Node Manager scope)
	PkgEnergyJ   float64 // RAPL PCK scope
	DramEnergyJ  float64 // RAPL DRAM scope
	AvgPowerW    float64
	AvgPkgPowerW float64
	AvgCPUGHz    float64 // measured (bias-adjusted) average
	AvgIMCGHz    float64
	AvgCPI       float64
	AvgGBs       float64
	// FinalCPUPstate and FinalUncoreMax are the operating point at run
	// end (what the policy settled on).
	FinalCPUPstate int
	FinalUncoreMax uint64
	// Signatures and PolicyApplies count EARL activity.
	Signatures    int
	PolicyApplies int
	LoopDetected  bool
	// NestedLevel/NestedPeriod report Dynais's highest locked level
	// (-1 when no loop was found).
	NestedLevel  int
	NestedPeriod int
	// Trace is the sampled time series when Options.Trace is set.
	Trace []TracePoint
	// Decisions is a copy of EARL's event trace when Options.DecisionLog
	// is set.
	Decisions []earl.Event
}

// Result aggregates a cluster run.
type Result struct {
	Workload string
	Policy   string
	Nodes    []NodeResult

	// Cluster-level aggregates: time is the slowest node (MPI
	// semantics), the rest are per-node means.
	TimeSec      float64
	AvgPowerW    float64
	AvgPkgPowerW float64
	EnergyJ      float64 // mean per-node DC energy
	AvgCPUGHz    float64
	AvgIMCGHz    float64
	AvgCPI       float64
	AvgGBs       float64
}

// aggregate fills the cluster-level fields from Nodes. The accumulation
// runs in node order with the same operations a slice maximum and mean
// perform (running maximum; ordered sum, then one divide), so the
// aggregates are bit-identical to the slice-based formulation while
// staying allocation-free — this sits inside every run.
func (r *Result) aggregate() {
	if len(r.Nodes) == 0 {
		return
	}
	var pows, pkgs, energies, cpus, imcs, cpis, gbs float64
	maxT := r.Nodes[0].TimeSec
	for i := range r.Nodes {
		n := &r.Nodes[i]
		if n.TimeSec > maxT {
			maxT = n.TimeSec
		}
		pows += n.AvgPowerW
		pkgs += n.AvgPkgPowerW
		energies += n.EnergyJ
		cpus += n.AvgCPUGHz
		imcs += n.AvgIMCGHz
		cpis += n.AvgCPI
		gbs += n.AvgGBs
	}
	cnt := float64(len(r.Nodes))
	r.TimeSec = maxT
	r.AvgPowerW = pows / cnt
	r.AvgPkgPowerW = pkgs / cnt
	r.EnergyJ = energies / cnt
	r.AvgCPUGHz = cpus / cnt
	r.AvgIMCGHz = imcs / cnt
	r.AvgCPI = cpis / cnt
	r.AvgGBs = gbs / cnt
}

// checkModel refuses options a run cannot honour: a policy without a
// trained model, or a model trained for another platform than the one
// cal was calibrated on. It allocates nothing when the options pass.
func checkModel(cal workload.Calibrated, opt Options) error {
	if opt.Model == nil {
		if opt.Policy != "none" {
			return fmt.Errorf("sim: policy %q needs a trained model", opt.Policy)
		}
		return nil
	}
	if err := opt.Model.Fits(cal.Platform.Machine.CPU); err != nil {
		return fmt.Errorf("sim: platform %s: %w", cal.Platform.Name, err)
	}
	return nil
}

// Run executes the workload on all its nodes under the given options.
// Nodes are simulated concurrently up to Options.Workers; each node is
// fully independent (own sockets, MSR files, meters, EARL instance and
// RNG), so the result does not depend on scheduling.
func Run(cal workload.Calibrated, opt Options) (Result, error) {
	opt = opt.WithDefaults()
	if opt.workers() == 1 || cal.Nodes == 1 {
		return runSerial(&cal, opt)
	}
	shared := cal // the parallel workers share one heap copy
	return run(&shared, opt)
}

// run is Run on a calibration the caller holds: RunAveraged's, which
// its runs and a parallel run's workers share without a copy.
func run(cal *workload.Calibrated, opt Options) (Result, error) {
	opt = opt.WithDefaults()
	if opt.workers() == 1 || cal.Nodes == 1 {
		return runSerial(cal, opt)
	}
	res, err := newResult(cal, opt)
	if err != nil {
		return Result{}, err
	}
	if err := runNodesPar(cal, opt, res.Nodes); err != nil {
		return Result{}, err
	}
	res.aggregate()
	return res, nil
}

// runSerial runs the nodes in order, as par.ForEach does at limit 1,
// without the closure a parallel dispatch needs; single-node runs
// dominate the campaign loop. cal does not escape, so Run hands it the
// address of its own copy. opt is defaulted.
func runSerial(cal *workload.Calibrated, opt Options) (Result, error) {
	res, err := newResult(cal, opt)
	if err != nil {
		return Result{}, err
	}
	for nodeID := 0; nodeID < cal.Nodes; nodeID++ {
		nr, err := runNode(cal, nodeID, opt)
		if err != nil {
			return Result{}, fmt.Errorf("sim: %s node %d: %w", cal.Name, nodeID, err)
		}
		res.Nodes[nodeID] = nr
	}
	res.aggregate()
	return res, nil
}

// newResult checks opt against cal and returns the result its nodes
// fill in.
func newResult(cal *workload.Calibrated, opt Options) (Result, error) {
	if err := checkModel(*cal, opt); err != nil {
		return Result{}, err
	}
	return Result{Workload: cal.Name, Policy: opt.Policy, Nodes: make([]NodeResult, cal.Nodes)}, nil
}

// runNodesPar is run's parallel dispatch. The closure moves opt to the
// heap; keeping it out of run spares the serial path that cost.
func runNodesPar(cal *workload.Calibrated, opt Options, out []NodeResult) error {
	return par.ForEach(opt.workers(), cal.Nodes, func(nodeID int) error {
		nr, err := runNode(cal, nodeID, opt)
		if err != nil {
			return fmt.Errorf("sim: %s node %d: %w", cal.Name, nodeID, err)
		}
		out[nodeID] = nr
		return nil
	})
}

// RunAveraged performs the paper's measurement protocol: several runs
// with different seeds, averaged. The per-node detail of the last run
// is retained. Options.Workers is split between the runs and their
// nodes (par.Split): the runs execute wide at a time and each run's
// nodes get each workers. Each run's seed is a pure function of
// (opt.Seed, run index) and the averages are accumulated in run order,
// so the result is identical at any worker count. cal is read in place
// and never written: concurrent callers may share one calibration.
func RunAveraged(cal *workload.Calibrated, opt Options, runs int) (Result, error) {
	if runs < 1 {
		return Result{}, fmt.Errorf("sim: need at least one run")
	}
	if runs == 1 {
		// Every average below would be (0 + x) / 1 == x.
		return run(cal, opt)
	}
	wide, each := par.Split(opt.workers(), runs)
	opt.Workers = each
	results := make([]Result, runs)
	if wide == 1 {
		// In order, as par.ForEach runs at limit 1, minus the closure.
		for i := range results {
			r, err := run(cal, seededRun(opt, i))
			if err != nil {
				return Result{}, err
			}
			results[i] = r
		}
	} else if err := runsPar(cal, opt, wide, results); err != nil {
		return Result{}, err
	}
	// Accumulate in run order with a slice mean's exact operations
	// (ordered sum, one divide) so the averages are bit-identical to
	// the former slice-based version at any Workers count.
	var times, pows, pkgs, energies, cpus, imcs, cpis, gbs float64
	for i := range results {
		r := &results[i]
		times += r.TimeSec
		pows += r.AvgPowerW
		pkgs += r.AvgPkgPowerW
		energies += r.EnergyJ
		cpus += r.AvgCPUGHz
		imcs += r.AvgIMCGHz
		cpis += r.AvgCPI
		gbs += r.AvgGBs
	}
	cnt := float64(runs)
	acc := results[runs-1]
	acc.TimeSec = times / cnt
	acc.AvgPowerW = pows / cnt
	acc.AvgPkgPowerW = pkgs / cnt
	acc.EnergyJ = energies / cnt
	acc.AvgCPUGHz = cpus / cnt
	acc.AvgIMCGHz = imcs / cnt
	acc.AvgCPI = cpis / cnt
	acc.AvgGBs = gbs / cnt
	return acc, nil
}

// seededRun is run i's options: its seed is a pure function of
// (opt.Seed, i).
func seededRun(opt Options, i int) Options {
	opt.Seed += int64(i) * 7919
	return opt
}

// runsPar is RunAveraged's parallel dispatch, wide runs at a time,
// apart for the same reason as runNodesPar.
func runsPar(cal *workload.Calibrated, opt Options, wide int, out []Result) error {
	return par.ForEach(wide, len(out), func(i int) error {
		r, err := run(cal, seededRun(opt, i))
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
}
