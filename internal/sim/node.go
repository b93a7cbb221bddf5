package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"goear/internal/cpu"
	"goear/internal/earl"
	"goear/internal/metrics"
	"goear/internal/msr"
	"goear/internal/perf"
	"goear/internal/policy"
	"goear/internal/power"
	"goear/internal/uncore"
	"goear/internal/workload"
)

// node is the state of one simulated compute node during a run.
type node struct {
	cal workload.Calibrated
	opt Options

	// slots holds each socket beside its uncore controller, one backing
	// allocation for all of them; files points at the sockets' MSR files
	// for power.Rapl, which holds it.
	slots []socketSlot
	files []*msr.File
	rapl  power.Rapl
	inm   power.NodeManager

	// Every node counter a replayed tick touches sits together from
	// here to armed: a 1,024-node sweep walks these bytes once per
	// tick, so the fewer cache lines they span the cheaper the sweep.
	now float64

	// Cumulative node counters (what EARL samples).
	instr, cycles, avx, bytes float64
	coreFreqSec, imcFreqSec   float64
	// True energy integrals by scope (simulator bookkeeping).
	pkgJ, dramJ float64

	// Iteration progress, for resumable stepping (RunCoordinated).
	instrLeft  float64
	wallLeft   float64
	iterActive bool
	done       bool

	// stepCount tallies every tick of this run, replayed those advanced
	// while armed and spans the replays that advanced them; plain ints
	// on purpose — flushTel adds them to the telemetry counters in one
	// atomic Add each.
	stepCount uint64
	replayed  uint64
	spans     uint64

	// armed is the fast-path state (see replay.go).
	armed armedState

	// Steady-state evaluation cache. The operating point changes rarely
	// relative to the 10 ms step, so the node keeps its last key and
	// entry (a copy, checked first) and falls back to evals: its Batch's
	// table, shared by every node the batch admitted, or ownEvals when
	// the node runs alone (Run, Stepper).
	lastKey   cacheKey
	lastEntry evalEntry
	haveEval  bool
	evals     *evalTable
	ownEvals  evalTable

	// mpiEvents is the per-iteration MPI call-site sequence, computed
	// once: Spec.MPIEvents allocates and hashes per call. mpiCount
	// tallies the events handed to EARL, for flushTel like stepCount; it
	// is touched at iteration boundaries only, so it stays out of the
	// replayed tick's bytes above.
	mpiEvents []uint32
	mpiCount  uint64

	// nctl is the earl.Ctl adapter over this node, embedded so the
	// actuation path never allocates.
	nctl nodeCtl

	rng rand.Rand
	// lib is this run's EARL instance, nil when no policy runs. ownLib
	// and pol are the node's EARL stack: init renews them in place run
	// after run (earl.Renew, policy.Renew), so a recycled node keeps its
	// Dynais windows and prediction tables, and a run without a policy
	// leaves them for the next that has one.
	lib    *earl.Library
	ownLib *earl.Library
	pol    policy.Policy

	// tel is the instrument bundle of the run's telemetry set, nil
	// without one; counted is pol wrapped to count into it. init keeps
	// both while the set and the renewed policy stay the same.
	tel     *simTel
	counted *counted

	// capRatio, when non-zero, is a node-daemon-enforced ceiling on the
	// core ratio (the EARGM powercap path); the policy's requests are
	// clamped to it at actuation level.
	capRatio uint64

	// Trace sampling state. The buffer stays with the node from run to
	// run; result hands out a copy.
	trace      []TracePoint
	lastTraceT float64
	lastTraceE float64
	lastTraceB float64

	// Position in the workload and the in-flight iteration's noise.
	segIdx, iterInSeg int
	tNoise, pNoise    float64

	// everUsed marks a node that already served a run (i.e. a pool
	// recycle on the next Get); init must NOT reset it.
	everUsed bool
}

// socketSlot is one socket and the uncore controller that reads its MSR
// file in place: a slot must not move or be copied once initialised, so
// init rebuilds every slot whenever it reallocates the slice, and callers
// index the slice rather than range over its values.
type socketSlot struct {
	sock cpu.Socket
	ctl  uncore.Controller
}

// evalTable memoises steady-state evaluations of one calibrated
// workload by operating point. The few points a run visits make a
// linear scan cheaper than a map: no hashing, no map allocation. Every
// entry is a pure function of its key and the workload, so any number
// of nodes of that workload may share one table; entries are copied
// out by value, so an append that moves the slices reaches no node.
type evalTable struct {
	keys []cacheKey
	vals []evalEntry
}

type cacheKey struct {
	seg  int
	core uint64
	unc  uint64
	cap  uint64
}

type evalEntry struct {
	res perf.Result
	brk power.Breakdown
	// effRatio is the licence-resolved core ratio driving the HW
	// uncore heuristic.
	effRatio uint64
}

// nodePool recycles per-node state across runs. Every field is reset by
// (*node).init, so reuse cannot leak state between runs; it exists purely
// to keep the per-run constant-size allocations (sockets, MSR files,
// meters, caches, and the EARL library, Dynais windows and policy) out
// of the steady-state experiment loop.
//
// It stays a pool by measurement (DESIGN §8). A warm campaign makes 472
// node runs. With every node built anew it allocates 11,465 objects and
// 7.06 MB at Parallel 1, where the pool leaves 698 and 0.30 MB (11,519
// against 742-762 at Parallel 2): far past sim-campaign's 2 %
// allocs_per_work bound. A node held outside a pool, one per worker,
// keeps 48.9 KB live, 32.8 KB of it the trace buffer ablation A1's
// traced runs grew: about 9 % of sim-campaign's 0.507 MiB live_heap_mb,
// whose bound is 10 %, for each simulation the bench runs at once.
var nodePool = sync.Pool{New: func() any { return new(node) }}

// runNode simulates the whole workload on one node.
func runNode(cal *workload.Calibrated, nodeID int, opt Options) (NodeResult, error) {
	n := nodePool.Get().(*node)
	recycled := n.everUsed
	n.everUsed = true
	// Nothing of the node escapes into the result: result copies the
	// trace, the library's counts and its decisions out.
	defer nodePool.Put(n)
	if err := n.init(cal, nodeID, opt); err != nil {
		return NodeResult{}, err
	}
	if recycled && n.tel != nil {
		n.tel.recycles.Inc()
	}
	if err := n.runUntil(math.Inf(1)); err != nil {
		return NodeResult{}, err
	}
	res, err := n.result()
	if err == nil {
		n.flushTel()
	}
	return res, err
}

// startIteration draws this iteration's noise and work budget.
func (n *node) startIteration() {
	n.tNoise = 1 + float64(noiseSD*n.rng.NormFloat64())
	n.pNoise = 1 + float64(noiseSD*n.rng.NormFloat64())
	if n.tNoise < 0.9 {
		n.tNoise = 0.9
	}
	if n.pNoise < 0.9 {
		n.pNoise = 0.9
	}
	if n.cal.Class == workload.Accelerator {
		// Accelerator iterations are paced by the GPU: wall time is
		// fixed, the host core spins for however many instructions fit.
		n.wallLeft = n.cal.IterPeriodSec * n.tNoise
		n.instrLeft = 0
	} else {
		n.instrLeft = n.cal.Segs[n.segIdx].InstrPerIter
		n.wallLeft = 0
	}
	n.iterActive = true
}

// stepOnce advances the node by at most one simulation step, crossing
// iteration and segment boundaries as needed. It is the slow state of
// the stepping engine — every tick a node is not armed for — and, on
// its own (Stepper, Options.ReferenceStep), the oracle the armed replay
// is tested against.
func (n *node) stepOnce() error {
	if n.done {
		return nil
	}
	n.stepCount++
	if !n.iterActive {
		n.startIteration()
	}
	e, err := n.evalAt(n.segIdx)
	if err != nil {
		return err
	}
	spi := e.res.SecPerInstr * n.tNoise

	var dt, nInstr float64
	if n.cal.Class == workload.Accelerator {
		dt = math.Min(stepSec, n.wallLeft)
		nInstr = dt / spi
		n.wallLeft -= dt
	} else {
		nInstr = stepSec / spi
		if nInstr > n.instrLeft {
			nInstr = n.instrLeft
		}
		dt = float64(nInstr * spi)
		n.instrLeft -= nInstr
	}
	if err := n.advance(n.segIdx, e, nInstr, dt, n.pNoise); err != nil {
		return err
	}

	finished := n.instrLeft <= 1e-6 && n.wallLeft <= 1e-9
	if !finished {
		return nil
	}
	n.iterActive = false
	if err := n.iterationBoundary(); err != nil {
		return err
	}
	n.iterInSeg++
	if n.iterInSeg >= n.cal.Segs[n.segIdx].Iterations {
		n.iterInSeg = 0
		n.segIdx++
		if n.segIdx >= len(n.cal.Segs) {
			n.done = true
		}
	}
	return nil
}

// setCapRatio applies (or with 0 releases) the node-daemon core-ratio
// ceiling used by cluster power management. The cap changes the
// operating point, so an armed node is disarmed; it re-arms once stable
// again.
func (n *node) setCapRatio(r uint64) {
	n.armed.on = false
	n.capRatio = r
}

func newNode(cal *workload.Calibrated, nodeID int, opt Options) (*node, error) {
	n := new(node)
	if err := n.init(cal, nodeID, opt); err != nil {
		return nil, err
	}
	return n, nil
}

// init (re)builds the node in place for one run, reusing every buffer
// the receiver already owns. It must reset all run state: recycled
// nodes come out of nodePool mid-campaign.
func (n *node) init(cal *workload.Calibrated, nodeID int, opt Options) error {
	m := cal.Platform.Machine
	n.cal, n.opt = *cal, opt
	n.now = 0
	n.instr, n.cycles, n.avx, n.bytes = 0, 0, 0, 0
	n.coreFreqSec, n.imcFreqSec = 0, 0
	n.pkgJ, n.dramJ = 0, 0
	n.haveEval = false
	n.ownEvals.keys = n.ownEvals.keys[:0]
	n.ownEvals.vals = n.ownEvals.vals[:0]
	n.evals = &n.ownEvals
	n.capRatio = 0
	n.trace = n.trace[:0]
	n.lastTraceT, n.lastTraceE, n.lastTraceB = 0, 0, 0
	n.segIdx, n.iterInSeg = 0, 0
	n.instrLeft, n.wallLeft = 0, 0
	n.iterActive, n.done = false, false
	n.stepCount, n.replayed, n.spans, n.mpiCount = 0, 0, 0, 0
	n.armed = armedState{}
	n.tNoise, n.pNoise = 0, 0
	n.lib = nil
	if n.tel == nil || n.tel.set != opt.Telemetry {
		n.tel = newSimTel(opt.Telemetry)
	}
	n.mpiEvents = cal.AppendMPIEvents(n.mpiEvents)
	n.nctl.n = n

	seed := opt.Seed*1000003 + int64(nodeID)*7907 + 1
	if n.rng == (rand.Rand{}) {
		n.rng = *rand.New(rand.NewSource(seed))
	} else {
		// Seed restores the exact generator state NewSource(seed)
		// produces, so recycled nodes draw identical noise sequences.
		n.rng.Seed(seed)
	}

	ns := m.CPU.Sockets
	if cap(n.slots) < ns {
		n.slots = make([]socketSlot, ns)
		n.files = make([]*msr.File, ns)
	} else {
		n.slots = n.slots[:ns]
		n.files = n.files[:ns]
	}
	for s := range n.slots {
		sl := &n.slots[s]
		if err := sl.sock.Init(m.CPU, s); err != nil {
			return err
		}
		if err := sl.ctl.Init(sl.sock.MSR, cal.HWUncore); err != nil {
			return err
		}
		n.files[s] = sl.sock.MSR
	}
	if err := n.rapl.Init(n.files); err != nil {
		return err
	}
	n.inm.Init()

	// Initial operating point: the paper's baseline is the nominal
	// frequency with the hardware uncore range wide open.
	p0 := 1
	if opt.FixedCPUPstate != nil {
		p0 = *opt.FixedCPUPstate
	}
	nctl := &n.nctl
	if err := nctl.SetCPUPstate(p0); err != nil {
		return err
	}
	if r := opt.FixedUncoreRatio; r != 0 {
		if r < m.CPU.UncoreMinRatio || r > m.CPU.UncoreMaxRatio {
			return fmt.Errorf("sim: pinned uncore ratio %d outside [%d, %d]", r, m.CPU.UncoreMinRatio, m.CPU.UncoreMaxRatio)
		}
		if err := nctl.SetUncoreLimits(r, r); err != nil {
			return err
		}
	}

	if opt.Policy != "none" {
		pcfg := policy.Config{
			Model:          opt.Model,
			CPUPolicyTh:    opt.CPUTh,
			UncPolicyTh:    opt.UncTh,
			HWGuided:       !opt.HWGuidedOff,
			UseAVX512Model: !opt.NoAVX512Model,
			DefaultPstate:  1,
			UncoreMinRatio: m.CPU.UncoreMinRatio,
			UncoreMaxRatio: m.CPU.UncoreMaxRatio,
			SigChangeTh:    opt.SigChangeTh,
			PinBothLimits:  opt.PinBothUncoreLimits,
		}
		pol, err := policy.Renew(n.pol, opt.Policy, pcfg)
		if err != nil {
			return err
		}
		n.pol = pol
		if n.tel != nil {
			n.counted = n.tel.count(n.counted, pol)
			pol = n.counted
		}
		lib, err := earl.Renew(n.ownLib, earl.Config{
			Policy:       pol,
			MinWindowSec: opt.MinWindowSec,
			SigChangeTh:  opt.SigChangeTh,
			EventLog:     opt.DecisionLog,
		}, nctl)
		if err != nil {
			return err
		}
		n.ownLib = lib
		if err := lib.Start(0); err != nil {
			return err
		}
		n.lib = lib
	}
	return nil
}

// evalAt returns the cached steady-state behaviour at the node's
// current operating point, honouring any power-management core cap. The
// entry is the node's own copy, n.lastEntry, never one in the table,
// whose next append may move it; it holds until the next evalAt.
func (n *node) evalAt(segIdx int) (*evalEntry, error) {
	coreRatio, uncRatio, err := n.slots[0].sock.OperatingPoint()
	if err != nil {
		return nil, err
	}
	if n.capRatio != 0 && coreRatio > n.capRatio {
		coreRatio = n.capRatio
	}
	if uncRatio == 0 {
		// Boot transient: the controller has not ticked yet.
		uncRatio = n.cal.Platform.Machine.CPU.UncoreMinRatio
	}
	key := cacheKey{segIdx, coreRatio, uncRatio, n.capRatio}
	if n.haveEval && key == n.lastKey {
		return &n.lastEntry, nil
	}
	t := n.evals
	for i := range t.keys {
		if t.keys[i] == key {
			n.lastKey, n.lastEntry, n.haveEval = key, t.vals[i], true
			return &n.lastEntry, nil
		}
	}
	seg := n.cal.Segs[segIdx]
	m := n.cal.Platform.Machine
	res, err := perf.Evaluate(m, seg.Phase, perf.Operating{CoreRatio: coreRatio, UncoreRatio: uncRatio})
	if err != nil {
		return nil, err
	}
	brk, err := n.cal.Platform.Power.Node(power.Input{
		CoreFreqGHz:   res.EffCoreFreq.GHzF(),
		UncoreFreqGHz: res.UncoreFreq.GHzF(),
		Sockets:       m.CPU.Sockets,
		ActiveCores:   n.cal.ActiveCores,
		Activity:      seg.Activity,
		GBs:           res.NodeGBs,
		GPUPower:      n.cal.GPUPowerW,
	})
	if err != nil {
		return nil, err
	}
	e := evalEntry{
		res:      res,
		brk:      brk,
		effRatio: uint64(math.Round(res.EffCoreFreq.GHzF() * 10)),
	}
	t.keys = append(t.keys, key)
	t.vals = append(t.vals, e)
	n.lastKey, n.lastEntry, n.haveEval = key, e, true
	return &n.lastEntry, nil
}

// advance moves simulated time forward by dt with nInstr instructions
// retiring per active core. Every product that feeds a sum is written
// float64(a*b): the explicit conversion rounds it, which by the language
// spec forbids fusing it into the add (an FMA on arm64, ppc64, s390x),
// so the armed replay — which adds the same product, rounded once into
// its tickLUT or formed once by a meter's Span — is bit-identical on
// every target, not only on amd64.
func (n *node) advance(segIdx int, e *evalEntry, nInstr, dt, pNoise float64) error {
	seg := n.cal.Segs[segIdx]
	nodeInstr := float64(nInstr * float64(n.cal.ActiveCores))

	n.instr += nodeInstr
	// Unhalted cycles follow wall time at the effective clock, so
	// iteration noise shows up in measured CPI as it does on hardware.
	n.cycles += float64(dt * e.res.EffCoreFreq.GHzF() * 1e9 * float64(n.cal.ActiveCores))
	n.avx += float64(seg.Phase.VPI * nodeInstr)
	n.bytes += float64(nodeInstr * seg.Phase.BytesPerInstr)

	total := e.brk.Total * pNoise
	if err := n.inm.Advance(total, dt); err != nil {
		return err
	}
	scaled := e.brk
	scaled.Pkg *= pNoise
	scaled.Dram *= pNoise
	if err := n.rapl.Advance(scaled, dt); err != nil {
		return err
	}
	n.pkgJ += float64(scaled.Pkg * dt)
	n.dramJ += float64(scaled.Dram * dt)

	n.coreFreqSec += float64(e.res.EffCoreFreq.GHzF() * n.cal.FreqBias * dt)
	n.imcFreqSec += float64(e.res.UncoreFreq.GHzF() * n.cal.IMCBias * dt)

	for s := range n.slots {
		if err := n.slots[s].ctl.Advance(dt, e.effRatio); err != nil {
			return err
		}
	}
	n.now += dt
	if n.opt.Trace && n.now-n.lastTraceT >= traceStepSec {
		if err := n.traceSample(e); err != nil {
			return err
		}
	}
	return nil
}

// traceSample appends one time-series point.
func (n *node) traceSample(e *evalEntry) error {
	dt := n.now - n.lastTraceT
	energy := n.inm.TrueEnergy()
	bytes := n.bytes
	ps, err := n.nctl.CurrentPstate()
	if err != nil {
		return err
	}
	lim, err := n.slots[0].sock.UncoreLimits()
	if err != nil {
		return err
	}
	p := TracePoint{
		TimeSec:   n.now,
		PowerW:    (energy - n.lastTraceE) / dt,
		CPUGHz:    e.res.EffCoreFreq.GHzF() * n.cal.FreqBias,
		IMCGHz:    e.res.UncoreFreq.GHzF() * n.cal.IMCBias,
		GBs:       (bytes - n.lastTraceB) / dt / 1e9,
		CPUPstate: ps,
		UncMax:    lim.MaxRatio,
	}
	if n.instr > 0 {
		p.CPI = n.cycles / n.instr
	}
	n.trace = append(n.trace, p)
	n.lastTraceT = n.now
	n.lastTraceE = energy
	n.lastTraceB = bytes
	return nil
}

// iterationBoundary feeds EARL the iteration's MPI events (or a
// time-guided tick for non-MPI workloads).
func (n *node) iterationBoundary() error {
	if n.lib == nil {
		return nil
	}
	if evs := n.mpiEvents; len(evs) > 0 {
		inner := n.cal.InnerLoopsPerIter
		if inner < 1 {
			inner = 1
		}
		n.mpiCount += uint64(inner * len(evs))
		for l := 0; l < inner; l++ {
			for _, ev := range evs {
				if err := n.lib.OnMPICall(ev, n.now); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return n.lib.OnTick(n.now)
}

// result assembles the node's run outcome.
func (n *node) result() (NodeResult, error) {
	if n.now <= 0 || n.instr <= 0 {
		return NodeResult{}, fmt.Errorf("sim: empty run")
	}
	ps, err := n.nctl.CurrentPstate()
	if err != nil {
		return NodeResult{}, err
	}
	lim, err := n.slots[0].sock.UncoreLimits()
	if err != nil {
		return NodeResult{}, err
	}
	r := NodeResult{
		TimeSec:        n.now,
		EnergyJ:        n.inm.TrueEnergy(),
		PkgEnergyJ:     n.pkgJ,
		DramEnergyJ:    n.dramJ,
		AvgCPUGHz:      n.coreFreqSec / n.now,
		AvgIMCGHz:      n.imcFreqSec / n.now,
		AvgCPI:         n.cycles / n.instr,
		AvgGBs:         n.bytes / n.now / 1e9,
		FinalCPUPstate: ps,
		FinalUncoreMax: lim.MaxRatio,
	}
	r.AvgPowerW = r.EnergyJ / r.TimeSec
	r.AvgPkgPowerW = r.PkgEnergyJ / r.TimeSec
	if len(n.trace) > 0 {
		// An exact-size copy: the node keeps its buffer for its next
		// run, and no result aliases it.
		r.Trace = make([]TracePoint, len(n.trace))
		copy(r.Trace, n.trace)
	}
	if n.lib != nil {
		r.Signatures = n.lib.Signatures()
		r.LoopDetected = n.lib.LoopDetected()
		r.NestedLevel, r.NestedPeriod = n.lib.NestedStructure()
		r.PolicyApplies = n.lib.Applies()
		if n.opt.DecisionLog {
			r.Decisions = slices.Clone(n.lib.Events())
		}
	}
	return r, nil
}

// nodeCtl implements earl.Ctl over the node.
type nodeCtl struct{ n *node }

func (c *nodeCtl) SetCPUPstate(p int) error {
	ratio, err := c.n.cal.Platform.Machine.CPU.PstateRatio(p)
	if err != nil {
		return err
	}
	for s := range c.n.slots {
		if err := c.n.slots[s].sock.RequestRatio(ratio); err != nil {
			return err
		}
	}
	return nil
}

func (c *nodeCtl) SetUncoreLimits(minR, maxR uint64) error {
	for s := range c.n.slots {
		if err := c.n.slots[s].sock.SetUncoreLimits(minR, maxR); err != nil {
			return err
		}
	}
	return nil
}

func (c *nodeCtl) CurrentPstate() (int, error) {
	ratio, err := c.n.slots[0].sock.RequestedRatio()
	if err != nil {
		return 0, err
	}
	return c.n.cal.Platform.Machine.CPU.RatioPstate(ratio)
}

func (c *nodeCtl) CurrentUncoreRatio() (uint64, error) {
	return c.n.slots[0].sock.CurrentUncoreRatio()
}

func (c *nodeCtl) Counters() (metrics.Sample, error) {
	n := c.n
	return metrics.Sample{
		TimeSec:         n.now,
		Instructions:    n.instr,
		CoreCycles:      n.cycles,
		AVXInstructions: n.avx,
		DRAMBytes:       n.bytes,
		EnergyJ:         n.inm.ReadEnergy(),
		CoreFreqSeconds: n.coreFreqSec,
		IMCFreqSeconds:  n.imcFreqSec,
	}, nil
}
