// Package perf implements the execution model of the simulated node: how
// many instructions per second a workload phase retires, and how much
// DRAM traffic it generates, as a function of the core and uncore
// frequencies.
//
// The model is an analytic latency/bandwidth model with a self-consistent
// fixed point: cycles per instruction is the sum of a core-bound
// component (frequency independent in cycles) and a memory-stall
// component proportional to the exposed DRAM latency, which itself
// depends on memory-subsystem utilisation — and utilisation depends on
// the achieved instruction rate. Evaluate iterates this to convergence.
//
// AVX512 instructions run under the reduced licence frequency; a phase's
// effective core frequency blends the two licence levels weighted by the
// AVX512 instruction fraction (VPI), reproducing the behaviour the
// paper's AVX512-aware energy model was designed to capture.
package perf

import (
	"fmt"
	"math"

	"goear/internal/cpu"
	"goear/internal/mem"
	"goear/internal/units"
)

// CacheLineBytes is the DRAM transfer granularity.
const CacheLineBytes = 64

// Machine couples the processor and memory models of one node.
type Machine struct {
	CPU cpu.Model
	Mem mem.Config
}

// Validate checks both halves.
func (m Machine) Validate() error {
	if err := m.CPU.Validate(); err != nil {
		return err
	}
	return m.Mem.Validate()
}

// Phase describes the computational behaviour of one application phase
// on one node. All rates are per retired instruction.
type Phase struct {
	// BaseCPI is the core-bound cycles per instruction: the CPI the
	// phase would exhibit with a perfect memory subsystem.
	BaseCPI float64
	// BytesPerInstr is the DRAM traffic (read+write) per instruction.
	BytesPerInstr float64
	// VPI is the fraction of instructions that are AVX512.
	VPI float64
	// Overlap in [0,1) is the fraction of DRAM latency hidden by
	// memory-level parallelism and out-of-order execution.
	Overlap float64
	// ActiveCores is the number of cores executing this phase on the
	// node (the rest are idle/halted).
	ActiveCores int
}

// validate reports whether the phase parameters are physical.
func (p Phase) validate() error {
	switch {
	case p.BaseCPI <= 0:
		return fmt.Errorf("perf: base CPI must be positive, got %g", p.BaseCPI)
	case p.BytesPerInstr < 0:
		return fmt.Errorf("perf: bytes/instr must be non-negative, got %g", p.BytesPerInstr)
	case p.VPI < 0 || p.VPI > 1:
		return fmt.Errorf("perf: VPI %g outside [0,1]", p.VPI)
	case p.Overlap < 0 || p.Overlap >= 1:
		return fmt.Errorf("perf: overlap %g outside [0,1)", p.Overlap)
	case p.ActiveCores <= 0:
		return fmt.Errorf("perf: active cores must be positive, got %d", p.ActiveCores)
	}
	return nil
}

// Operating is the frequency state the node runs at while evaluating a
// phase: the requested core ratio and the current uncore ratio.
type Operating struct {
	CoreRatio   uint64
	UncoreRatio uint64
}

// Result is the steady-state behaviour of a phase at an operating point.
type Result struct {
	// CPI is total cycles per instruction at the effective core clock.
	CPI float64
	// EffCoreFreq is the licence-resolved core frequency.
	EffCoreFreq units.Freq
	// UncoreFreq is the uncore frequency used.
	UncoreFreq units.Freq
	// IPSCore is retired instructions per second on one active core.
	IPSCore float64
	// NodeGBs is the achieved DRAM bandwidth of the node in GB/s.
	NodeGBs float64
	// MemUtilization is achieved bandwidth over capability, in
	// [0, MaxUtilization].
	MemUtilization float64
	// SecPerInstr is seconds per instruction on one active core
	// (1/IPSCore), the quantity the simulator integrates.
	SecPerInstr float64
}

// newtonIters bounds the Newton steps that estimate a fixed point; the
// exact search corrects whatever error they leave.
const newtonIters = 16

// Evaluate computes the steady-state Result of running phase p on
// machine m at operating point op. It is EvaluateAll of one phase.
func Evaluate(m Machine, p Phase, op Operating) (Result, error) {
	var out [1]Result
	if _, _, err := evaluateAll(m, op, []Phase{p}, out[:]); err != nil {
		return Result{}, err
	}
	return out[0], nil
}

// EvaluateAll computes the steady-state Result of every phase at one
// operating point into out (at least as long as phases), each bit for
// bit what Evaluate returns for it. It returns how many phases it
// evaluated: on an error, out[:n] holds the results of the phases
// before phases[n], the first that failed.
//
// The self-consistency problem is: utilisation rho determines latency,
// latency determines CPI, CPI determines demanded bandwidth, and demand
// determines rho again. The implied-utilisation map is continuous and
// strictly decreasing in rho, so it has a unique fixed point, and the
// result is T, its floating-point fixed point: the least float in
// (0, MaxUtilization] at which the implied utilisation no longer exceeds
// rho. If even at maximum utilisation the demand exceeds the saturated
// capability, the phase is bandwidth-bound and cycles stretch until
// achieved bandwidth equals that capability.
func EvaluateAll(m Machine, op Operating, phases []Phase, out []Result) (int, error) {
	n, _, err := evaluateAll(m, op, phases, out)
	return n, err
}

// work is what evaluateAll did, summed over phases: the work count the
// learning phase pins.
type work struct {
	rises int // evaluations of rises by the exact search
}

// point is what every phase evaluated at one operating point shares.
type point struct {
	mem   mem.Config
	cap   float64 // node bandwidth capability, GB/s
	latNs float64 // DRAM latency with empty queues
	maxU  float64 // mem.MaxUtilization
}

// phaseAt is one phase's constants at an operating point's core
// frequency.
type phaseAt struct {
	base, exposed, fg, fg9, cores, bpi float64
}

// cpi is the latency-limited CPI of ph at a trial utilisation.
func (a *point) cpi(ph *phaseAt, rho float64) float64 {
	return ph.base + float64(ph.exposed*(a.latNs*a.mem.QueueFactor(rho))*ph.fg)
}

// demand is the node bandwidth ph demands at that CPI.
func (ph *phaseAt) demand(cpi float64) float64 {
	return ph.cores * (ph.fg9 / cpi) * ph.bpi / 1e9
}

// newPoint returns what every phase evaluated at uncore frequency fu on
// memory c shares.
func newPoint(c mem.Config, fu units.Freq) point {
	return point{mem: c, cap: c.CapabilityGBs(fu), latNs: c.UnqueuedLatencyNs(fu), maxU: c.MaxUtilization}
}

// at returns phase p's constants at effective core frequency fg GHz.
func at(p *Phase, fg float64) phaseAt {
	return phaseAt{
		base:    p.BaseCPI,
		exposed: (1 - p.Overlap) * (p.BytesPerInstr / CacheLineBytes),
		fg:      fg,
		fg9:     fg * 1e9,
		cores:   float64(p.ActiveCores),
		bpi:     p.BytesPerInstr,
	}
}

// saturated reports whether ph is bandwidth-bound: its demand reaches
// the saturated capability even under maximum queueing delay.
func (a *point) saturated(ph *phaseAt) bool {
	return a.cap <= 0 || ph.demand(a.cpi(ph, a.maxU))/a.cap >= a.maxU
}

// evaluateAll is EvaluateAll that also returns the work it did. A phase
// with no traffic, or bandwidth-bound even at maximum utilisation, needs
// no search; every other is solved at T.
func evaluateAll(m Machine, op Operating, phases []Phase, out []Result) (n int, w work, err error) {
	fu := units.FromRatio(op.UncoreRatio, cpu.BusClock)
	a := newPoint(m.Mem, fu)
	maxU := a.maxU
	for n = 0; n < len(phases); n++ {
		p := &phases[n]
		if err = p.validate(); err != nil {
			break
		}
		if fu.GHzF() <= 0 {
			err = fmt.Errorf("perf: uncore ratio %d yields non-positive frequency", op.UncoreRatio)
			break
		}
		fEff := effectiveCoreFreq(m.CPU, p.VPI, op.CoreRatio)
		ph := at(p, fEff.GHzF())
		out[n] = Result{EffCoreFreq: fEff, UncoreFreq: fu}
		switch {
		case p.BytesPerInstr == 0:
			ph.finish(&out[n], 0, p.BaseCPI)
		case a.saturated(&ph):
			cpi := a.cpi(&ph, maxU)
			if d, sat := ph.demand(cpi), a.cap*maxU; d > sat && sat > 0 {
				cpi *= d / sat
			}
			ph.finish(&out[n], maxU, cpi)
		default:
			rho := a.least(&ph, &w)
			ph.finish(&out[n], rho, a.cpi(&ph, rho))
		}
		if cpi := out[n].CPI; math.IsNaN(cpi) || math.IsInf(cpi, 0) {
			return n, w, fmt.Errorf("perf: model diverged (CPI=%v)", cpi)
		}
	}
	return n, w, err
}

// least returns T, the least float in (0, maxU] at which
// rises is false, counting its evaluations of rises in w. It starts at
// Newton's estimate, gallops away from it in ulps until the outcome
// changes, then halves the bit interval between the last two outcomes:
// positive floats are ordered as their bit patterns are. Every loop is
// bounded by the 63 bits below the sign, whatever rises returns, so a
// phase whose CPI diverges ends too, with a T its result does not need.
func (a *point) least(ph *phaseAt, w *work) float64 {
	// rises is true at lo, or lo is zero, and false at hi: at maxU, the
	// phase's demand is below the saturated capability, or it would be
	// bandwidth-bound and not solved here.
	lo, hi := uint64(0), math.Float64bits(a.maxU)
	x := math.Float64bits(a.estimate(ph))
	x = min(max(x, 1), hi) // a NaN or negative estimate has bits above hi
	if x < hi {
		w.rises++
		if a.rises(ph, math.Float64frombits(x)) {
			lo = x
			for d := uint64(1); hi-x > d; d <<= 1 {
				w.rises++
				if !a.rises(ph, math.Float64frombits(x+d)) {
					hi = x + d
					break
				}
				lo = x + d
			}
		} else {
			hi = x
			for d := uint64(1); x-lo > d; d <<= 1 {
				w.rises++
				if a.rises(ph, math.Float64frombits(x-d)) {
					lo = x - d
					break
				}
				hi = x - d
			}
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		w.rises++
		if a.rises(ph, math.Float64frombits(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(hi)
}

// estimate approximates ph's fixed point by Newton's method on
// f(ρ) = ρ − k/cpi(ρ), where cpi(ρ) = b + eg·ρ³/(1−ρ) is the CPI with
// e = exposed·latNs·fg, b = base + e and eg = e·QueueGain, and k/cpi the
// implied utilisation. f is below zero at 0 and above it at maxU, and
// each step keeps that bracket: a step that leaves it takes the
// bracket's midpoint instead. It starts at min(k/b, maxU), at or above
// the root, and stops when a step moves less than 2^-26 of ρ, so that
// the last step left rounding alone. Every product is rounded before it
// is summed, so the estimate, and the search's work after it, are the
// same on every target.
func (a *point) estimate(ph *phaseAt) float64 {
	e := float64(float64(ph.exposed*a.latNs) * ph.fg)
	eg := float64(e * a.mem.QueueGain)
	b := ph.base + e
	k := ph.demand(1) / a.cap
	lo, hi := 0.0, a.maxU
	x := min(k/b, hi)
	for i := 0; i < newtonIters; i++ {
		w := 1 / (1 - x)
		q := float64(float64(eg*float64(x*x)) * w) // eg·ρ²/(1−ρ)
		ic := 1 / (b + float64(q*x))
		u := float64(k * ic)
		f := x - u
		switch {
		case f > 0:
			hi = x
		case f < 0:
			lo = x
		default:
			return x // a root, or f is NaN
		}
		// f' = 1 + u·cpi'/cpi, with cpi' = eg·ρ²(3−2ρ)/(1−ρ)².
		df := 1 + float64(u*float64(float64(q*float64((3-float64(2*x))*w))*ic))
		nx := x - f/df
		if !(nx >= lo && nx <= hi) {
			nx = midpoint(lo, hi)
		}
		d := math.Abs(nx - x)
		if x = nx; d <= float64(x*0x1p-26) {
			break
		}
	}
	return x
}

// rises reports whether the utilisation ph's demand at rho implies
// exceeds rho. The implied
// utilisation is u clamped to maxU, but the clamp never decides: below
// maxU it keeps the comparison's outcome, and at maxU itself u is below
// maxU, or the phase would be bandwidth-bound and not solved. A NaN u,
// which only a phase whose CPI diverges makes, never rises.
//
// Every operation in rises is a correctly rounded +, −, × or ÷ on
// operands of fixed sign, so it is monotone in floating point too: true
// below T and false from T on.
func (a *point) rises(ph *phaseAt, rho float64) bool {
	u := ph.demand(a.cpi(ph, rho)) / a.cap
	return rho < u
}

// midpoint halves lo+hi. The compiler halves by a product, exact here,
// and the explicit conversion keeps arm64 from fusing it into the sum
// that follows.
func midpoint(lo, hi float64) float64 { return float64((lo + hi) / 2) }

// finish fills in the rates that follow from the phase's utilisation
// and CPI.
func (ph *phaseAt) finish(r *Result, rho, cpi float64) {
	ipsCore := ph.fg9 / cpi
	r.CPI = cpi
	r.IPSCore = ipsCore
	r.NodeGBs = ph.cores * ipsCore * ph.bpi / 1e9
	r.MemUtilization = rho
	r.SecPerInstr = 1 / ipsCore
}

// effectiveCoreFreq resolves the licence-blended core frequency for a
// phase with the given AVX512 fraction at the requested ratio: the
// non-AVX licence frequency and the AVX512 licence frequency are blended
// by instruction fraction.
func effectiveCoreFreq(m cpu.Model, vpi float64, coreRatio uint64) units.Freq {
	rNon := m.EffectiveRatio(coreRatio, false)
	rAvx := m.EffectiveRatio(coreRatio, true)
	fNon := units.FromRatio(rNon, cpu.BusClock).GHzF()
	fAvx := units.FromRatio(rAvx, cpu.BusClock).GHzF()
	return units.GHz(float64((1-vpi)*fNon) + float64(vpi*fAvx))
}

// Solve inverts the model: given a target total CPI and achieved
// bandwidth at an operating point, it returns the phase that reproduces
// them through Evaluate. VPI and ActiveCores come from proto and
// BytesPerInstr is always solved; coreFrac says which CPI share is free.
//
// With coreFrac 0, proto.Overlap is held and BaseCPI takes the rest of
// the CPI; if the overlap leaves no room for a core component it is
// raised until a small core CPI remains. With coreFrac in (0,1], that
// share of the target CPI is held in BaseCPI and the overlap is solved
// to fit the exposed-memory-stall rest. The split determines how the
// workload responds to core frequency (the core part scales, the stall
// part does not) and to uncore frequency (through the stall part), so
// it is the calibration's handle on each application's observed
// DVFS/UFS response. If the memory traffic cannot carry the requested
// stall share even at zero overlap, the remainder falls back into
// BaseCPI. The workload calibration uses it to make each catalogue
// entry reproduce its published signature at nominal frequency.
func Solve(m Machine, proto Phase, op Operating, targetCPI, targetGBs, coreFrac float64) (Phase, error) {
	if !(coreFrac >= 0 && coreFrac <= 1) {
		return Phase{}, fmt.Errorf("perf: core CPI fraction %g outside [0,1]", coreFrac)
	}
	if targetCPI <= 0 {
		return Phase{}, fmt.Errorf("perf: target CPI must be positive, got %g", targetCPI)
	}
	if targetGBs < 0 {
		return Phase{}, fmt.Errorf("perf: target GB/s must be non-negative, got %g", targetGBs)
	}
	fEff := effectiveCoreFreq(m.CPU, proto.VPI, op.CoreRatio)
	fg := fEff.GHzF()
	fu := units.FromRatio(op.UncoreRatio, cpu.BusClock)

	// Instructions per second per core implied by the target CPI, and
	// the bytes/instr that produce the target bandwidth at that rate.
	ipsCore := fg * 1e9 / targetCPI
	bytesPerInstr := 0.0
	if targetGBs > 0 {
		bytesPerInstr = targetGBs * 1e9 / (float64(proto.ActiveCores) * ipsCore)
	}
	// The exposed-latency stall at zero overlap, at the target
	// utilisation.
	lines := bytesPerInstr / CacheLineBytes
	rho := m.Mem.Utilization(targetGBs, fu)
	lat := m.Mem.LatencyNs(fu, rho)
	maxStall := float64(lines * lat * fg)

	const minBase = 0.05
	var base, overlap float64
	if coreFrac > 0 {
		base = max(coreFrac*targetCPI, minBase)
		if stall := targetCPI - base; maxStall > 0 && stall > 0 {
			overlap = 1 - stall/maxStall
			if overlap < 0 {
				// The DRAM traffic cannot carry this much stall: take what
				// it can at zero overlap and return the rest to the core.
				overlap = 0
				base = max(targetCPI-maxStall, minBase)
			}
			if overlap >= 1 {
				overlap = 0.999
			}
		} else {
			base = targetCPI
		}
	} else {
		overlap = proto.Overlap
		base = targetCPI - float64((1-overlap)*lines*lat*fg)
		// If the requested overlap leaves no room for a core component,
		// raise the overlap until a small core CPI remains.
		if base < minBase {
			if needStall := targetCPI - minBase; maxStall > 0 && needStall > 0 {
				overlap = max(1-needStall/maxStall, 0)
				if overlap >= 1 {
					overlap = 0.999
				}
			}
			base = minBase
		}
	}

	out := proto
	out.BaseCPI = base
	out.BytesPerInstr = bytesPerInstr
	out.Overlap = overlap
	if err := out.validate(); err != nil {
		return Phase{}, fmt.Errorf("perf: calibration produced invalid phase: %w", err)
	}

	// Refine against the full model so the calibrated phase reproduces
	// the targets exactly through Evaluate, including queueing and
	// saturation effects the analytic guess ignores. The free share
	// takes the CPI error: the overlap when the core share is held and
	// the traffic can move it, BaseCPI otherwise.
	for i := 0; i < 40; i++ {
		got, err := Evaluate(m, out, op)
		if err != nil {
			return Phase{}, err
		}
		cpiErr := targetCPI - got.CPI
		if slope := lines * lat * fg; coreFrac > 0 && slope > 0 {
			// dCPI/dOverlap = -lines·lat·fg
			out.Overlap = clampF(out.Overlap-cpiErr/slope, 0, 0.999)
		} else {
			out.BaseCPI = max(out.BaseCPI+cpiErr, minBase)
		}
		if targetGBs > 0 && got.NodeGBs > 0 {
			// Achieved GB/s scales with bytes/instr at fixed CPI; a
			// damped multiplicative step converges even when the
			// bytes themselves feed back into CPI.
			out.BytesPerInstr *= math.Sqrt(targetGBs / got.NodeGBs)
			lines = out.BytesPerInstr / CacheLineBytes
		}
		if math.Abs(cpiErr) < 1e-9*targetCPI {
			if targetGBs == 0 || math.Abs(got.NodeGBs-targetGBs) < 1e-6*targetGBs {
				break
			}
		}
	}
	if err := out.validate(); err != nil {
		return Phase{}, fmt.Errorf("perf: calibration refinement produced invalid phase: %w", err)
	}
	return out, nil
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
