package sim

import (
	"math"

	"goear/internal/msr"
	"goear/internal/ulp"
	"goear/internal/uncore"
	"goear/internal/workload"
)

// The stepping engine. A node is in one of two states:
//
//   - slow: stepOnce runs the tick — iteration boundaries (noise draws,
//     EARL events, policy actuation), controller ramps, trace sampling,
//     the clamped final tick of an iteration.
//   - armed: the node is mid-iteration at a stable operating point —
//     evaluation cached, every uncore controller settled, no trace
//     sampling. Every remaining tick of the iteration then performs the
//     same constant increments, so arm precomputes them once (the
//     node's tickLUT), and replay moves the node over the span of ticks
//     up to the caller's barrier or the iteration's last tick at once.
//     Each replayed quantity is a chain of one constant float op a
//     tick; on the ulp grid of the binade it is in, k ticks of it are
//     integer arithmetic on its bits (internal/ulp), so the span costs
//     a few operations per chain and binade, not per tick, and the
//     replay is bit-identical to stepping. The identity tests compare
//     the two field by field, FuzzSpanMatchesTicks each chain.
//
// Arming and disarming round-trip the meters and controllers through
// their flat views (power.NodeManager.FlatState, Rapl.FlatCarry,
// uncore.Controller.TickAccum, the raw RAPL MSR counters); the node's
// own counters are advanced in place. Armed state persists between
// runUntil calls, so a batch swept one tick per call pays for arming
// once per iteration, not once per call.

// armSockets is the widest node the armed state holds: every catalogue
// platform has two sockets. A wider node never arms and steps tick by
// tick. Eight-wide carries were measured and rejected — the per-node
// state outgrows the cache on a 1,024-node sweep and a replayed tick
// costs twice as much.
const armSockets = 2

// armedState is an armed node's lifted meter and controller state plus
// its precomputed tick. Only replay, replayTicks, arm, disarm and
// trueEnergy touch it.
type armedState struct {
	on bool
	// accel and nsock copy n.cal.Class and len(n.slots), so a
	// replayed tick reads nothing outside the node's hot bytes.
	accel bool
	nsock int
	lut   tickLUT

	inmTrue, inmPub, inmLast, inmNow float64

	carryDram float64
	cntDram   uint64
	carryPkg  [armSockets]float64
	cntPkg    [armSockets]uint64
	ctlAcc    [armSockets]float64
}

// tickLUT is one node's precomputed tick: every value stepOnce would
// recompute identically each tick while the operating point holds. Each
// field is built with the exact expression (and evaluation order) of
// stepOnce and advance, so replaying the adds is bit-identical to
// stepping.
type tickLUT struct {
	dt        float64 // simulated seconds per tick
	instr     float64 // per-core instructions per tick
	nodeInstr float64 // node instructions per tick
	cycles    float64
	avx       float64
	bytes     float64
	totalJ    float64 // DC energy per tick (INM scope)
	pkgJ      float64 // RAPL PKG joules per tick (all sockets)
	dramJ     float64
	sockPkgJ  float64 // RAPL PKG joules per tick per socket
	coreFS    float64 // core frequency-seconds per tick
	imcFS     float64
	esuScale  float64 // joules -> RAPL counter counts multiplier
	// per is the work one tick retires from the iteration (instructions
	// for a CPU code, seconds for an accelerator), stop the largest work
	// left at which the next tick would clamp or finish it.
	per, stop float64
}

// runUntil advances the node to (at least) simulated time t or to
// completion, whichever comes first: replaying while armed, stepping
// otherwise. Every driver — Run, RunCoordinated, Batch — goes through
// it; under Options.ReferenceStep it never arms and is a plain stepOnce
// loop.
func (n *node) runUntil(t float64) error {
	for !n.done && n.now < t {
		if n.armed.on {
			n.replay(t)
			if n.now >= t {
				return nil
			}
			if err := n.disarm(); err != nil {
				return err
			}
		}
		if err := n.stepOnce(); err != nil {
			return err
		}
		if !n.opt.ReferenceStep {
			n.arm()
		}
	}
	return nil
}

// shortSpan is the span below which ticking beats solving: a span
// solved in closed form costs about what 30 ticks cost one at a time,
// and a batch swept one tick per call must not pay that every tick.
const shortSpan = 32

// replay moves the armed node ahead by a span of k ticks: k is the
// number of ticks before the node reaches t or its iteration's next tick
// would clamp or finish, which only stepOnce handles; replay returns
// with that tick untouched. A span of shortSpan ticks or more moves
// every replayed quantity ahead as an independent chain in closed form
// (internal/ulp, span.go), bit for bit what k repetitions of the
// precomputed tick give; a shorter one is those repetitions.
func (n *node) replay(t float64) {
	a := &n.armed
	l := &a.lut
	left := &n.instrLeft
	if a.accel {
		left = &n.wallLeft
	}
	if k, _ := ulp.Reach(n.now, l.dt, t, shortSpan); k < shortSpan {
		n.replayTicks(left, k)
		return
	}

	// The span ends at the barrier or before the tick stepOnce would
	// clamp or finish: the first at which the falling chain of work left
	// is at or below the LUT's stop.
	end, last := ulp.Reach(*left, -l.per, l.stop, math.MaxUint64)
	k, now := ulp.Reach(n.now, l.dt, t, end)
	if k == 0 {
		return
	}
	if k < end {
		last = ulp.Advance(*left, -l.per, k)
	}
	*left, n.now = last, now

	// advance(), every per-tick constant taken from the LUT.
	n.instr = ulp.Advance(n.instr, l.nodeInstr, k)
	n.cycles = ulp.Advance(n.cycles, l.cycles, k)
	n.avx = ulp.Advance(n.avx, l.avx, k)
	n.bytes = ulp.Advance(n.bytes, l.bytes, k)
	n.pkgJ = ulp.Advance(n.pkgJ, l.pkgJ, k)
	n.dramJ = ulp.Advance(n.dramJ, l.dramJ, k)
	n.coreFreqSec = ulp.Advance(n.coreFreqSec, l.coreFS, k)
	n.imcFreqSec = ulp.Advance(n.imcFreqSec, l.imcFS, k)

	// Node Manager: integrate, publish at whole-second boundaries.
	a.inmTrue, a.inmPub, a.inmLast, a.inmNow = inmSpan(a.inmTrue, a.inmPub, a.inmLast, a.inmNow, l.totalJ, l.dt, k)

	// RAPL: carry fractional joules, truncate to counter units, wrap the
	// mirrored 32-bit counters exactly as msr.AddEnergyHw does.
	for s := 0; s < a.nsock; s++ {
		a.carryPkg[s], a.cntPkg[s] = raplSpan(l.sockPkgJ, a.carryPkg[s], a.cntPkg[s], l.esuScale, k)
		// Settled controllers: ticks are no-ops, only the accumulator moves.
		a.ctlAcc[s] = uncore.SettleSpan(a.ctlAcc[s], l.dt, k)
	}
	a.carryDram, a.cntDram = raplSpan(l.dramJ, a.carryDram, a.cntDram, l.esuScale, k)

	n.stepCount += k
	n.replayed += k
}

// replayTicks repeats the precomputed tick at most k times, stopping
// before the iteration's clamp or finish: stepOnce and advance's
// arithmetic with every per-tick constant taken from the LUT.
func (n *node) replayTicks(left *float64, k uint64) {
	a := &n.armed
	l := &a.lut
	var i uint64
	for ; i < k && *left > l.stop; i++ {
		*left -= l.per
		n.instr += l.nodeInstr
		n.cycles += l.cycles
		n.avx += l.avx
		n.bytes += l.bytes
		n.pkgJ += l.pkgJ
		n.dramJ += l.dramJ
		n.coreFreqSec += l.coreFS
		n.imcFreqSec += l.imcFS

		a.inmTrue += l.totalJ
		a.inmNow += l.dt
		if a.inmNow-a.inmLast >= 1.0 {
			a.inmPub = a.inmTrue
			a.inmLast = float64(int64(a.inmNow))
		}

		for s := 0; s < a.nsock; s++ {
			a.carryPkg[s], a.cntPkg[s] = raplTick(l.sockPkgJ, a.carryPkg[s], a.cntPkg[s], l.esuScale)
			a.ctlAcc[s] = uncore.SettleAccum(a.ctlAcc[s], l.dt)
		}
		a.carryDram, a.cntDram = raplTick(l.dramJ, a.carryDram, a.cntDram, l.esuScale)
		n.now += l.dt
	}
	n.stepCount += i
	n.replayed += i
}

// arm lifts the node into the fast path when it is mid-iteration at a
// stable operating point: evaluation cached, every uncore controller
// settled, no trace sampling, no more sockets than the armed state
// holds. On any other state, or any error, the node simply stays slow
// (the next stepOnce surfaces the error).
func (n *node) arm() {
	ns := len(n.slots)
	if n.done || !n.iterActive || n.opt.Trace || ns > armSockets {
		return
	}
	e, err := n.evalAt(n.segIdx)
	if err != nil {
		return
	}
	for s := range n.slots {
		if ok, err := n.slots[s].ctl.Settled(e.effRatio); err != nil || !ok {
			return
		}
	}
	a := &n.armed
	a.accel = n.cal.Class == workload.Accelerator
	a.nsock = ns
	l := &a.lut
	spi := e.res.SecPerInstr * n.tNoise
	if a.accel {
		l.dt = stepSec
		l.instr = l.dt / spi
	} else {
		l.instr = stepSec / spi
		l.dt = float64(l.instr * spi)
	}
	// The products advance writes as float64(a*b), rounded here the
	// same way: neither side can fuse one into the add that consumes it.
	seg := n.cal.Segs[n.segIdx]
	cores := float64(n.cal.ActiveCores)
	l.nodeInstr = float64(l.instr * cores)
	l.cycles = float64(l.dt * e.res.EffCoreFreq.GHzF() * 1e9 * cores)
	l.avx = float64(seg.Phase.VPI * l.nodeInstr)
	l.bytes = float64(l.nodeInstr * seg.Phase.BytesPerInstr)
	total := e.brk.Total * n.pNoise
	l.totalJ = float64(total * l.dt)
	scaledPkg := e.brk.Pkg * n.pNoise
	scaledDram := e.brk.Dram * n.pNoise
	l.sockPkgJ = float64(scaledPkg / float64(ns) * l.dt)
	l.pkgJ = float64(scaledPkg * l.dt)
	l.dramJ = float64(scaledDram * l.dt)
	l.coreFS = float64(e.res.EffCoreFreq.GHzF() * n.cal.FreqBias * l.dt)
	l.imcFS = float64(e.res.UncoreFreq.GHzF() * n.cal.IMCBias * l.dt)

	if a.accel {
		l.per, l.stop = l.dt, lastClamp(l.dt, 1e-9)
	} else {
		l.per, l.stop = l.instr, lastClamp(l.instr, 1e-6)
	}

	unit, err := n.files[0].Read(msr.MSRRaplPowerUnit)
	if err != nil {
		return
	}
	l.esuScale = float64(uint64(1) << ((unit >> 8) & 0x1F))

	for s := 0; s < ns; s++ {
		if a.cntPkg[s], err = n.files[s].Read(msr.MSRPkgEnergyStatus); err != nil {
			return
		}
		a.ctlAcc[s] = n.slots[s].ctl.TickAccum()
	}
	if a.cntDram, err = n.files[0].Read(msr.MSRDramEnergyStatus); err != nil {
		return
	}
	a.carryDram = n.rapl.FlatCarry(a.carryPkg[:ns])
	a.inmTrue, a.inmPub, a.inmLast, a.inmNow = n.inm.FlatState()
	a.on = true
}

// disarm flushes the lifted state back — meters, carries, controllers,
// MSR energy registers — restoring exactly the state tick-by-tick
// stepping would have reached.
func (n *node) disarm() error {
	a := &n.armed
	for s := 0; s < a.nsock; s++ {
		if err := n.files[s].WriteHw(msr.MSRPkgEnergyStatus, a.cntPkg[s]); err != nil {
			return err
		}
		n.slots[s].ctl.SetTickAccum(a.ctlAcc[s])
	}
	if err := n.files[0].WriteHw(msr.MSRDramEnergyStatus, a.cntDram); err != nil {
		return err
	}
	n.rapl.SetFlatCarry(a.carryPkg[:a.nsock], a.carryDram)
	n.inm.SetFlatState(a.inmTrue, a.inmPub, a.inmLast, a.inmNow)
	a.on = false
	return nil
}

// trueEnergy returns the node's exact DC energy integral (the
// simulator-side Node Manager reading), served from the lifted state
// while armed so a power reading costs no flush.
func (n *node) trueEnergy() float64 {
	if n.armed.on {
		return n.armed.inmTrue
	}
	return n.inm.TrueEnergy()
}
