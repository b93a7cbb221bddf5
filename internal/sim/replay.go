package sim

import (
	"math"

	"goear/internal/ulp"
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
//     same constant increments, so arm precomputes the node's own once
//     (its tickLUT), and replay moves the node over the span of ticks
//     up to the caller's barrier or the iteration's last tick at once.
//     Each of the node's counters is a chain of one constant float op a
//     tick; on the ulp grid of the binade it is in, k ticks of it are
//     integer arithmetic on its bits (internal/ulp), so the span costs
//     a few operations per chain and binade, not per tick. There is one
//     path whatever the span's length: a one-tick span is solved the
//     same way, at a cost that hardly depends on the length. The meters
//     and controllers move their own state by the same span (their Span
//     methods), so every instrument and register is current whenever
//     runUntil returns. The replay is bit-identical to stepping: the
//     identity tests compare the two field by field,
//     FuzzSpanMatchesTicks the node's chains and each meter's fuzz test
//     its Span.
//
// Armed state is the LUT alone and persists between runUntil calls, so
// a batch swept one tick per call pays for arming once per iteration,
// not once per call; disarming clears a flag.

// armedState is an armed node's precomputed tick: arm builds it,
// replay reads it, and clearing on disarms it.
type armedState struct {
	on bool
	// accel copies n.cal.Class, so a replayed tick reads nothing
	// outside the node's hot bytes to pick its work counter.
	accel bool
	lut   tickLUT
}

// tickLUT is one node's precomputed tick: every value stepOnce would
// recompute identically each tick while the operating point holds. Each
// field is built with the exact expression of stepOnce and advance, so
// replaying the adds is bit-identical to stepping.
type tickLUT struct {
	dt        float64 // simulated seconds per tick
	instr     float64 // per-core instructions per tick
	nodeInstr float64 // node instructions per tick
	cycles    float64
	avx       float64
	bytes     float64
	pkgJ      float64 // RAPL PKG joules per tick (all sockets)
	dramJ     float64
	coreFS    float64 // core frequency-seconds per tick
	imcFS     float64
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
			if err := n.replay(t); err != nil || n.now >= t {
				return err
			}
			n.armed.on = false
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

// replay moves the armed node ahead by a span of k ticks: k is the
// number of ticks before the node reaches t or its iteration's next tick
// would clamp or finish, which only stepOnce handles; replay returns
// with that tick untouched. Whatever k is, each of the node's counters
// moves ahead as an independent chain in closed form, bit for bit what
// k repetitions of the precomputed tick give. The meters and controllers
// then take the same k ticks through their Span methods, with the
// operands advance hands their Advance.
func (n *node) replay(t float64) error {
	a := &n.armed
	l := &a.lut
	left := &n.instrLeft
	if a.accel {
		left = &n.wallLeft
	}
	// The span ends at the barrier or before the tick stepOnce would
	// clamp or finish: the first at which the falling chain of work left
	// is at or below the LUT's stop.
	end, last := ulp.Reach(*left, -l.per, l.stop, math.MaxUint64)
	k, now := ulp.Reach(n.now, l.dt, t, end)
	if k == 0 {
		return nil
	}
	if k < end {
		last = ulp.Advance(*left, -l.per, k)
	}
	*left, n.now = last, now
	n.stepCount += k
	n.replayed += k
	n.spans++

	// advance(), every per-tick constant taken from the LUT.
	n.instr = ulp.Advance(n.instr, l.nodeInstr, k)
	n.cycles = ulp.Advance(n.cycles, l.cycles, k)
	n.avx = ulp.Advance(n.avx, l.avx, k)
	n.bytes = ulp.Advance(n.bytes, l.bytes, k)
	n.pkgJ = ulp.Advance(n.pkgJ, l.pkgJ, k)
	n.dramJ = ulp.Advance(n.dramJ, l.dramJ, k)
	n.coreFreqSec = ulp.Advance(n.coreFreqSec, l.coreFS, k)
	n.imcFreqSec = ulp.Advance(n.imcFreqSec, l.imcFS, k)

	e := &n.lastEntry // the entry arm evaluated: nothing re-evaluates while armed
	if err := n.inm.Span(e.brk.Total*n.pNoise, l.dt, k); err != nil {
		return err
	}
	scaled := e.brk
	scaled.Pkg *= n.pNoise
	scaled.Dram *= n.pNoise
	if err := n.rapl.Span(scaled, l.dt, k); err != nil {
		return err
	}
	for s := range n.slots {
		if err := n.slots[s].ctl.Span(l.dt, e.effRatio, k); err != nil {
			return err
		}
	}
	return nil
}

// arm lifts the node into the fast path when it is mid-iteration at a
// stable operating point: evaluation cached, every uncore controller
// settled, no trace sampling. On any other state, or any error, the node
// simply stays slow (the next stepOnce surfaces the error).
func (n *node) arm() {
	if n.done || !n.iterActive || n.opt.Trace {
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
	l.pkgJ = float64(e.brk.Pkg * n.pNoise * l.dt)
	l.dramJ = float64(e.brk.Dram * n.pNoise * l.dt)
	l.coreFS = float64(e.res.EffCoreFreq.GHzF() * n.cal.FreqBias * l.dt)
	l.imcFS = float64(e.res.UncoreFreq.GHzF() * n.cal.IMCBias * l.dt)

	if a.accel {
		l.per, l.stop = l.dt, lastClamp(l.dt, 1e-9)
	} else {
		l.per, l.stop = l.instr, lastClamp(l.instr, 1e-6)
	}
	a.on = true
}

// lastClamp returns the largest work left at which stepOnce's tick would
// clamp or finish the iteration. The tick is replayed while it takes a
// full per and leaves more than floor, fl(left−per) > floor (a CPU
// code's clamp, per > left, leaves ≤ 0); fl(left−per) grows with left,
// so the ticks that are not replayed are those at or below one bound.
func lastClamp(per, floor float64) float64 {
	x := floor + per
	for x-per > floor {
		x = math.Nextafter(x, 0)
	}
	for up := math.Nextafter(x, math.Inf(1)); up-per <= floor; up = math.Nextafter(up, math.Inf(1)) {
		x = up
	}
	return x
}
