// Package uncore implements the hardware uncore frequency scaling (UFS)
// controller of a Skylake-SP socket, the mechanism EAR's explicit UFS
// policy competes with and is guided by.
//
// Per Intel's patent (US9323316B2) and the measurements in Hackenberg et
// al. and Schöne et al. that the paper cites, the silicon runs a control
// loop with roughly 10 ms reaction time whose target depends on the
// fastest active core frequency and the memory activity of the socket,
// biased by the ENERGY_PERF_BIAS hint and always clamped to the limits
// programmed in MSR 0x620 (UNCORE_RATIO_LIMIT).
//
// The exact heuristic is proprietary, and the paper's own measurements
// (Tables IV and VI) show it is not a simple function of load — that is
// precisely the motivation for explicit UFS. Each simulated workload
// therefore carries a Curve describing the silicon's observed response
// for that access pattern, calibrated from the paper's ME columns; the
// controller mechanics around the curve (tick latency, one-step ramping,
// MSR clamping, EPB bias) are faithful to the published behaviour.
package uncore

import (
	"fmt"
	"math"

	"goear/internal/msr"
	"goear/internal/ulp"
)

// tickSeconds is the controller reaction period: the ~10 ms Schöne et
// al. measured for workload-change detection on Skylake-SP.
const tickSeconds = 0.010

// eps absorbs float accumulation error in the tick accumulator, so that
// e.g. five 10 ms advances yield exactly five ticks.
const eps = 1e-9

// Curve maps the effective (licence-resolved) core ratio to the uncore
// ratio the silicon heuristic aims for, before MSR clamping (Target). It
// is a comparable value, serialised as a workload file's "hw_uncore";
// the zero Curve is invalid.
type Curve struct {
	// Type selects the curve family: "always_max", "follow_core",
	// "step" or "fixed".
	Type string `json:"type"`
	// Max is the ratio for always_max.
	Max uint64 `json:"max,omitempty"`
	// Offset is follow_core's signed ratio offset.
	Offset int64 `json:"offset,omitempty"`
	// Threshold, Hi, Lo parameterise step.
	Threshold uint64 `json:"threshold,omitempty"`
	Hi        uint64 `json:"hi,omitempty"`
	Lo        uint64 `json:"lo,omitempty"`
	// Ratio is fixed's pin point.
	Ratio uint64 `json:"ratio,omitempty"`
}

// AlwaysMax returns a curve that always requests ratio max: the
// behaviour the paper observed for every workload with appreciable
// memory traffic ("the HW left the IMC up to the maximum").
func AlwaysMax(max uint64) Curve { return Curve{Type: "always_max", Max: max} }

// FollowCore returns a curve that tracks the fastest active core ratio
// plus a constant offset (which may be negative): the patent's primary
// input. DGEMM's AVX512-licensed cores dragging the uncore down is this
// curve with offset -2.
func FollowCore(offset int64) Curve { return Curve{Type: "follow_core", Offset: offset} }

// Step returns a curve that requests hi while the core ratio is at least
// threshold and lo below it: the observed cliff for the CUDA busy-wait
// and GROMACS cases, where a small core-frequency reduction flipped the
// heuristic into a much lower uncore target.
func Step(threshold, hi, lo uint64) Curve {
	return Curve{Type: "step", Threshold: threshold, Hi: hi, Lo: lo}
}

// Fixed returns a curve pinned to one ratio.
func Fixed(r uint64) Curve { return Curve{Type: "fixed", Ratio: r} }

// Validate reports whether the curve is one of the four families with
// the parameters it needs.
func (c Curve) Validate() error {
	switch {
	case c.Type == "follow_core", c.Type == "always_max" && c.Max > 0,
		c.Type == "step" && c.Threshold > 0 && c.Hi > 0, c.Type == "fixed" && c.Ratio > 0:
		return nil
	}
	return fmt.Errorf("uncore: invalid curve %+v (always_max needs max, step threshold and hi, fixed ratio; follow_core takes an offset)", c)
}

// Target is the uncore ratio the curve requests at the given core ratio.
func (c Curve) Target(coreRatio uint64) uint64 {
	switch c.Type {
	case "follow_core":
		t := int64(coreRatio) + c.Offset
		if t < 0 {
			return 0
		}
		return uint64(t)
	case "step":
		if coreRatio >= c.Threshold {
			return c.Hi
		}
		return c.Lo
	case "fixed":
		return c.Ratio
	}
	return c.Max
}

// Controller drives one socket's uncore ratio. It owns MSR 0x621
// (UNCORE_PERF_STATUS) and respects MSR 0x620 (UNCORE_RATIO_LIMIT),
// which software (EAR) writes to steer it.
type Controller struct {
	msrs  *msr.File
	curve Curve
	acc   float64 // time accumulated toward the next tick
}

// Init (re)attaches the controller in place to a socket's MSR file; a
// zero Controller is ready once Init returns. The controller starts
// from whatever MSR 0x621 currently holds (the simulator boots sockets
// at the hardware minimum, so the ramp to the workload's level is
// visible in averages, as it is in the paper's 2.39-vs-2.40 GHz
// readings).
func (c *Controller) Init(m *msr.File, curve Curve) error {
	if m == nil {
		return fmt.Errorf("uncore: nil MSR file")
	}
	if err := curve.Validate(); err != nil {
		return err
	}
	c.msrs, c.curve, c.acc = m, curve, 0
	return nil
}

// Advance runs the controller for dt seconds of simulated time with the
// socket's effective core ratio. At each 10 ms tick the current uncore
// ratio moves one step toward the clamped target.
func (c *Controller) Advance(dt float64, coreRatio uint64) error {
	if dt < 0 {
		return fmt.Errorf("uncore: negative time step %g", dt)
	}
	c.acc += dt
	for c.acc >= tickSeconds-eps {
		c.acc -= tickSeconds
		if err := c.tick(coreRatio); err != nil {
			return err
		}
	}
	return nil
}

// step computes one control decision: the current operating ratio and
// the ratio the next tick moves to (equal when the controller is
// settled at its clamped target).
func (c *Controller) step(coreRatio uint64) (cur, next uint64, err error) {
	limV, err := c.msrs.Read(msr.MSRUncoreRatioLimit)
	if err != nil {
		return 0, 0, err
	}
	lim := msr.DecodeUncoreRatioLimit(limV)

	target := c.curve.Target(coreRatio)

	// ENERGY_PERF_BIAS: a powersave hint lowers the target one step, a
	// performance hint raises it one.
	if epb, err := c.msrs.Read(msr.IA32EnergyPerfBias); err == nil {
		switch {
		case epb >= 9 && target > 0:
			target--
		case epb <= 3:
			target++
		}
	}

	if target > lim.MaxRatio {
		target = lim.MaxRatio
	}
	if target < lim.MinRatio {
		target = lim.MinRatio
	}

	curV, err := c.msrs.Read(msr.MSRUncorePerfStatus)
	if err != nil {
		return 0, 0, err
	}
	cur = msr.DecodeUncorePerfStatus(curV)
	next = cur

	// Re-clamp the operating point immediately if software narrowed the
	// window under it: the silicon honours 0x620 on the next tick.
	switch {
	case next > lim.MaxRatio:
		next = lim.MaxRatio
	case next < lim.MinRatio:
		next = lim.MinRatio
	case next < target:
		next++
	case next > target:
		next--
	}
	return cur, next, nil
}

// tick performs one control step.
func (c *Controller) tick(coreRatio uint64) error {
	cur, next, err := c.step(coreRatio)
	if err != nil {
		return err
	}
	if next == cur {
		// Settled at the (clamped) target: nothing to publish. This is
		// the steady state the controller spends almost all its ticks
		// in, so skipping the register write keeps the per-step cost at
		// three atomic loads.
		return nil
	}
	return c.msrs.WriteHw(msr.MSRUncorePerfStatus, msr.EncodeUncorePerfStatus(next))
}

// TickAccum returns the time accumulated toward the controller's next
// tick. Together with SetTickAccum it lets the simulator's armed
// replay lift the controller's only mutable non-MSR state while the
// controller is settled (ticks are then pure no-ops) and restore it
// unchanged afterwards.
func (c *Controller) TickAccum() float64 { return c.acc }

// SetTickAccum restores an accumulator lifted with TickAccum (or
// advanced externally with SettleAccum or SettleSpan).
func (c *Controller) SetTickAccum(v float64) { c.acc = v }

// SettleAccum advances a lifted tick accumulator by dt using exactly
// Advance's arithmetic, draining whole ticks without performing them.
// It is only correct while the controller is settled (a tick neither
// reads changing state nor writes anything), which is the condition
// the simulator arms a node under.
func SettleAccum(acc, dt float64) float64 {
	acc += dt
	for acc >= tickSeconds-eps {
		acc -= tickSeconds
	}
	return acc
}

// SettleSpan returns what k successive SettleAccum(acc, dt) calls
// return, bit for bit, in a time that does not grow with k.
//
// While x = acc+dt drains exactly one tick (x ≥ tickSeconds−eps and
// x−tickSeconds below it), x−tickSeconds is exact (Sterbenz: x and
// tickSeconds are within a factor of two), and so is d = dt−tickSeconds
// for a dt within a factor of two of tickSeconds. The next tick's x,
// fl(x−tickSeconds+dt), is then fl(x+d): x is a chain of constant step,
// which ulp walks to the first tick that leaves the one-drain window,
// and the accumulator after the tick before it is that tick's
// x−tickSeconds. Every other tick is SettleAccum itself.
func SettleSpan(acc, dt float64, k uint64) float64 {
	var thr float64 = tickSeconds - eps // the rounded bound SettleAccum compares with
	d := dt - tickSeconds
	// The window's far edge in x: the first x that drains twice when x
	// rises, the last that drains nothing when it falls.
	var edge float64
	if d > 0 {
		if edge = tickSeconds + thr; edge-tickSeconds < thr {
			edge = math.Nextafter(edge, 1)
		}
	} else {
		edge = math.Nextafter(thr, 0)
	}
	for k > 0 {
		x := acc + dt
		if x < thr || x-tickSeconds >= thr || dt < tickSeconds/2 || dt > 2*tickSeconds {
			acc = SettleAccum(acc, dt)
			k--
			continue
		}
		m, _ := ulp.Reach(x, d, edge, k) // ticks 0..m−1 drain once
		acc = ulp.Advance(x, d, m-1) - tickSeconds
		k -= m
	}
	return acc
}

// Settled reports whether a tick at the given effective core ratio
// would leave the operating ratio where it is — i.e. the control loop
// has converged under the current limits. The simulator arms a node
// for replay only then: while the controller is still ramping,
// per-tick stepping is what produces the ramp.
func (c *Controller) Settled(coreRatio uint64) (bool, error) {
	cur, next, err := c.step(coreRatio)
	if err != nil {
		return false, err
	}
	return next == cur, nil
}
