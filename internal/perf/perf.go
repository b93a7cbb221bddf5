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

// bisectIters bounds the utilisation bisection: 60 halvings reduce the
// bracket below 1e-18, far under measurement noise.
const bisectIters = 60

// Evaluate computes the steady-state Result of running phase p on
// machine m at operating point op.
//
// The self-consistency problem is: utilisation rho determines latency,
// latency determines CPI, CPI determines demanded bandwidth, and demand
// determines rho again. The implied-utilisation map is continuous and
// strictly decreasing in rho, so it has a unique fixed point which is
// found by bisection. If even at maximum utilisation the demand exceeds
// the saturated capability, the phase is bandwidth-bound and cycles
// stretch until achieved bandwidth equals that capability.
func Evaluate(m Machine, p Phase, op Operating) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	fEff := effectiveCoreFreq(m.CPU, p.VPI, op.CoreRatio)
	fu := units.FromRatio(op.UncoreRatio, cpu.BusClock)
	if fu.GHzF() <= 0 {
		return Result{}, fmt.Errorf("perf: uncore ratio %d yields non-positive frequency", op.UncoreRatio)
	}
	fg := fEff.GHzF()

	linesPerInstr := p.BytesPerInstr / CacheLineBytes
	exposed := (1 - p.Overlap) * linesPerInstr
	cap := m.Mem.CapabilityGBs(fu)
	sat := cap * m.Mem.MaxUtilization

	// cpiAt computes latency-limited CPI at a trial utilisation.
	cpiAt := func(rho float64) float64 {
		return p.BaseCPI + exposed*m.Mem.LatencyNs(fu, rho)*fg
	}
	// demandAt computes the node bandwidth demanded at that CPI.
	demandAt := func(cpi float64) float64 {
		return float64(p.ActiveCores) * (fg * 1e9 / cpi) * p.BytesPerInstr / 1e9
	}
	// implied maps trial rho to the utilisation its demand would cause.
	implied := func(rho float64) float64 {
		if cap <= 0 {
			return m.Mem.MaxUtilization
		}
		u := demandAt(cpiAt(rho)) / cap
		if u > m.Mem.MaxUtilization {
			u = m.Mem.MaxUtilization
		}
		return u
	}

	var rho, cpi float64
	switch {
	case p.BytesPerInstr == 0:
		rho, cpi = 0, p.BaseCPI
	case implied(m.Mem.MaxUtilization) >= m.Mem.MaxUtilization:
		// Saturated even under maximum queueing delay: bandwidth-bound.
		rho = m.Mem.MaxUtilization
		cpi = cpiAt(rho)
		if d := demandAt(cpi); d > sat && sat > 0 {
			cpi *= d / sat
		}
	default:
		lo, hi := 0.0, m.Mem.MaxUtilization
		for i := 0; i < bisectIters; i++ {
			mid := (lo + hi) / 2
			if implied(mid) > mid {
				lo = mid
			} else {
				hi = mid
			}
		}
		rho = (lo + hi) / 2
		cpi = cpiAt(rho)
	}

	ipsCore := fg * 1e9 / cpi
	gbs := float64(p.ActiveCores) * ipsCore * p.BytesPerInstr / 1e9
	res := Result{
		CPI:            cpi,
		EffCoreFreq:    fEff,
		UncoreFreq:     fu,
		IPSCore:        ipsCore,
		NodeGBs:        gbs,
		MemUtilization: rho,
		SecPerInstr:    1 / ipsCore,
	}
	if math.IsNaN(res.CPI) || math.IsInf(res.CPI, 0) {
		return Result{}, fmt.Errorf("perf: model diverged (CPI=%v)", res.CPI)
	}
	return res, nil
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
	return units.GHz((1-vpi)*fNon + vpi*fAvx)
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
	maxStall := lines * lat * fg

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
		base = targetCPI - (1-overlap)*lines*lat*fg
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
