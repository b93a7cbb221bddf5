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

// lanes is how many phases' bisections run in lock-step. A bisection
// step is a chain of dependent divisions; four independent chains keep
// the divider busy where one leaves it waiting on its own latency.
const lanes = 4

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
// strictly decreasing in rho, so it has a unique fixed point which is
// found by bisection. If even at maximum utilisation the demand exceeds
// the saturated capability, the phase is bandwidth-bound and cycles
// stretch until achieved bandwidth equals that capability.
func EvaluateAll(m Machine, op Operating, phases []Phase, out []Result) (int, error) {
	n, _, err := evaluateAll(m, op, phases, out)
	return n, err
}

// point is what every phase evaluated at one operating point shares.
type point struct {
	mem   mem.Config
	cap   float64 // node bandwidth capability, GB/s
	latNs float64 // DRAM latency with empty queues
}

// lane is one phase's bisection: the phase's constants, its bracket,
// and where its result goes.
type lane struct {
	base, exposed, fg, fg9, cores, bpi float64
	lo, hi                             float64
	i                                  int // index into phases and out
}

// cpi is the latency-limited CPI of l's phase at a trial utilisation.
func (a *point) cpi(l *lane, rho float64) float64 {
	return l.base + float64(l.exposed*(a.latNs*a.mem.QueueFactor(rho))*l.fg)
}

// demand is the node bandwidth l's phase demands at that CPI.
func (l *lane) demand(cpi float64) float64 {
	return l.cores * (l.fg9 / cpi) * l.bpi / 1e9
}

// evaluateAll is EvaluateAll that also returns the bisection steps
// taken, summed over phases: the work count the learning phase pins.
// Phases that need no bisection (no traffic, or bandwidth-bound even at
// maximum utilisation) are solved as they come; the others fill lanes,
// and each full group of lanes bisects side by side.
func evaluateAll(m Machine, op Operating, phases []Phase, out []Result) (n, steps int, err error) {
	fu := units.FromRatio(op.UncoreRatio, cpu.BusClock)
	a := point{mem: m.Mem, cap: m.Mem.CapabilityGBs(fu), latNs: m.Mem.UnqueuedLatencyNs(fu)}
	maxU := m.Mem.MaxUtilization
	var g [lanes]lane
	w := 0
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
		fg := fEff.GHzF()
		l := lane{
			base:    p.BaseCPI,
			exposed: (1 - p.Overlap) * (p.BytesPerInstr / CacheLineBytes),
			fg:      fg,
			fg9:     fg * 1e9,
			cores:   float64(p.ActiveCores),
			bpi:     p.BytesPerInstr,
			hi:      maxU,
			i:       n,
		}
		out[n] = Result{EffCoreFreq: fEff, UncoreFreq: fu}
		switch {
		case p.BytesPerInstr == 0:
			l.finish(&out[n], 0, p.BaseCPI)
		case a.cap <= 0 || l.demand(a.cpi(&l, maxU))/a.cap >= maxU:
			// Saturated even under maximum queueing delay: bandwidth-bound.
			cpi := a.cpi(&l, maxU)
			if d, sat := l.demand(cpi), a.cap*maxU; d > sat && sat > 0 {
				cpi *= d / sat
			}
			l.finish(&out[n], maxU, cpi)
		default:
			g[w] = l
			if w++; w == lanes {
				steps += a.bisect(g[:w], out)
				w = 0
			}
		}
	}
	steps += a.bisect(g[:w], out)
	for i := range out[:n] {
		if cpi := out[i].CPI; math.IsNaN(cpi) || math.IsInf(cpi, 0) {
			return i, steps, fmt.Errorf("perf: model diverged (CPI=%v)", cpi)
		}
	}
	return n, steps, err
}

// bisect solves the lanes' fixed points in lock-step, writes their
// results, and returns the steps taken. Each lane keeps the scalar
// expression order and moves one bracket end by a mask, not a branch
// (which end is a coin toss a branch predictor cannot learn). A lane
// stops at the first step whose midpoint was an end of its bracket
// already: that step's outcome repeats for ever, so every later step
// would leave the bracket as it is, and stopping there is exact.
//
// A lone lane, Evaluate's case, would wait on each step's whole chain of
// divisions. It takes two steps a round instead: beside the midpoint it
// evaluates both midpoints the next step can take, the three chains
// overlap, and the first outcome picks the second step's.
func (a *point) bisect(g []lane, out []Result) (steps int) {
	per := 1
	if len(g) == 1 {
		per = 2
	}
	live := len(g)
	var done [lanes]bool
	for it := 0; it < bisectIters && live > 0; it += per {
		for k := range g {
			if done[k] {
				continue
			}
			l := &g[k]
			mid := midpoint(l.lo, l.hi)
			if per == 1 {
				steps++
				done[k] = l.step(a.rises(l, mid), mid)
			} else {
				down, up := midpoint(l.lo, mid), midpoint(mid, l.hi)
				m, mDown, mUp := a.rises(l, mid), a.rises(l, down), a.rises(l, up)
				steps++
				if done[k] = l.step(m, mid); !done[k] {
					steps++
					done[k] = l.step(mUp&m|mDown&^m, pick(m, up, down))
				}
			}
			if done[k] {
				live--
			}
		}
	}
	for k := range g {
		l := &g[k]
		rho := midpoint(l.lo, l.hi)
		l.finish(&out[l.i], rho, a.cpi(l, rho))
	}
	return steps
}

// rises returns all ones when the utilisation l's demand at rho implies
// exceeds rho (rho-u is negative), and zero otherwise. The implied
// utilisation is u clamped to maxU, but the clamp never decides: below
// maxU it keeps the comparison's outcome, and at maxU itself u is below
// maxU, or the phase would be bandwidth-bound and not bisected. A NaN u
// may go either way; only a phase whose CPI diverges makes one.
func (a *point) rises(l *lane, rho float64) uint64 {
	u := l.demand(a.cpi(l, rho)) / a.cap
	return uint64(int64(math.Float64bits(rho-u)) >> 63)
}

// step moves l's low bracket end to mid where m is all ones, its high
// end where m is zero, and reports whether mid was an end already.
func (l *lane) step(m uint64, mid float64) (stop bool) {
	stop = mid == l.lo || mid == l.hi
	l.lo, l.hi = pick(m, mid, l.lo), pick(m, l.hi, mid)
	return stop
}

// midpoint halves lo+hi. The compiler halves by a product, exact here,
// and the explicit conversion keeps arm64 from fusing it into the sum
// that follows.
func midpoint(lo, hi float64) float64 { return float64((lo + hi) / 2) }

// pick returns x where m is all ones and y where it is zero.
func pick(m uint64, x, y float64) float64 {
	return math.Float64frombits(math.Float64bits(x)&m | math.Float64bits(y)&^m)
}

// finish fills in the rates that follow from the phase's utilisation
// and CPI.
func (l *lane) finish(r *Result, rho, cpi float64) {
	ipsCore := l.fg9 / cpi
	r.CPI = cpi
	r.IPSCore = ipsCore
	r.NodeGBs = l.cores * ipsCore * l.bpi / 1e9
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
