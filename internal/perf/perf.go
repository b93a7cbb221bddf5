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

// newtonIters bounds the Newton steps that estimate a fixed point; the
// exact search corrects whatever error they leave.
const newtonIters = 16

// lanes is how many phases' bisections are replayed in lock-step.
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
// strictly decreasing in rho, so it has a unique fixed point, and the
// result is the utilisation a 60-step bisection for it ends at. If even
// at maximum utilisation the demand exceeds the saturated capability,
// the phase is bandwidth-bound and cycles stretch until achieved
// bandwidth equals that capability.
func EvaluateAll(m Machine, op Operating, phases []Phase, out []Result) (int, error) {
	n, _, err := evaluateAll(m, op, phases, out)
	return n, err
}

// work is what evaluateAll did, summed over phases: the work counts the
// learning phase pins.
type work struct {
	steps int // bisection steps replayed
	rises int // evaluations of rises by the exact search
}

// point is what every phase evaluated at one operating point shares.
type point struct {
	mem   mem.Config
	cap   float64 // node bandwidth capability, GB/s
	latNs float64 // DRAM latency with empty queues
	maxU  float64 // mem.MaxUtilization
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

// newPoint returns what every phase evaluated at uncore frequency fu on
// memory c shares.
func newPoint(c mem.Config, fu units.Freq) point {
	return point{mem: c, cap: c.CapabilityGBs(fu), latNs: c.UnqueuedLatencyNs(fu), maxU: c.MaxUtilization}
}

// lane returns phase p's lane at effective core frequency fg GHz, its
// result going to out[i].
func (a *point) lane(p *Phase, fg float64, i int) lane {
	return lane{
		base:    p.BaseCPI,
		exposed: (1 - p.Overlap) * (p.BytesPerInstr / CacheLineBytes),
		fg:      fg,
		fg9:     fg * 1e9,
		cores:   float64(p.ActiveCores),
		bpi:     p.BytesPerInstr,
		hi:      a.maxU,
		i:       i,
	}
}

// saturated reports whether l's phase is bandwidth-bound: its demand
// reaches the saturated capability even under maximum queueing delay.
func (a *point) saturated(l *lane) bool {
	return a.cap <= 0 || l.demand(a.cpi(l, a.maxU))/a.cap >= a.maxU
}

// evaluateAll is EvaluateAll that also returns the work it did.
// Phases that need no bisection (no traffic, or bandwidth-bound even at
// maximum utilisation) are solved as they come; the others fill lanes,
// and each full group of lanes is solved together.
func evaluateAll(m Machine, op Operating, phases []Phase, out []Result) (n int, w work, err error) {
	fu := units.FromRatio(op.UncoreRatio, cpu.BusClock)
	a := newPoint(m.Mem, fu)
	maxU := a.maxU
	var g [lanes]lane
	k := 0
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
		l := a.lane(p, fEff.GHzF(), n)
		out[n] = Result{EffCoreFreq: fEff, UncoreFreq: fu}
		switch {
		case p.BytesPerInstr == 0:
			l.finish(&out[n], 0, p.BaseCPI)
		case a.saturated(&l):
			cpi := a.cpi(&l, maxU)
			if d, sat := l.demand(cpi), a.cap*maxU; d > sat && sat > 0 {
				cpi *= d / sat
			}
			l.finish(&out[n], maxU, cpi)
		default:
			g[k] = l
			if k++; k == lanes {
				a.solve(g[:k], out, &w)
				k = 0
			}
		}
	}
	a.solve(g[:k], out, &w)
	for i := range out[:n] {
		if cpi := out[i].CPI; math.IsNaN(cpi) || math.IsInf(cpi, 0) {
			return i, w, fmt.Errorf("perf: model diverged (CPI=%v)", cpi)
		}
	}
	return n, w, err
}

// solve finds the lanes' fixed points, writes their results and adds
// its work to w.
//
// The result is where a bisection of [0, maxU] on rises ends: it halves
// the bracket at most 60 times, and stops at the first step whose
// midpoint was an end of its bracket already, since that step's outcome
// repeats for ever. Every operation in rises is a correctly rounded +,
// −, × or ÷ on operands of fixed sign, so rises is monotone in floating
// point too: it is one below T, the least float in (0, maxU] where it is
// zero, and zero from T on. The bisection's path is therefore a function
// of T alone. solve finds T exactly by a search on the float bit
// patterns, a few evaluations of rises each, and replays the path with
// mid < T in place of rises(mid): no division, the lanes in lock-step,
// each moving one bracket end by a mask and not a branch (which end is a
// coin toss a branch predictor cannot learn).
func (a *point) solve(g []lane, out []Result, w *work) {
	var t [lanes]uint64
	for k := range g {
		t[k] = a.least(&g[k], w)
	}
	// A lane that has stopped steps on with the others: its midpoint is
	// an end of its bracket and its outcome moves that end onto itself.
	live := uint(1)<<len(g) - 1 // bit k is set until lane k stops
	for it := 0; it < bisectIters && live != 0; it++ {
		for k := range g {
			l := &g[k]
			mid := midpoint(l.lo, l.hi)
			w.steps += int(live >> k & 1)
			if l.step(below(mid, t[k]), mid) {
				live &^= 1 << k
			}
		}
	}
	for k := range g {
		l := &g[k]
		rho := midpoint(l.lo, l.hi)
		l.finish(&out[l.i], rho, a.cpi(l, rho))
	}
}

// least returns the bits of T, the least float in (0, maxU] at which
// rises is zero, counting its evaluations of rises in w. It starts at
// Newton's estimate, gallops away from it in ulps until the outcome
// changes, then halves the bit interval between the last two outcomes:
// positive floats are ordered as their bit patterns are. Every loop is
// bounded by the 63 bits below the sign, whatever rises returns, so a
// phase whose CPI diverges ends too, with a T its result does not need.
func (a *point) least(l *lane, w *work) uint64 {
	// rises is one at lo, or lo is zero, and zero at hi: at maxU, the
	// phase's demand is below the saturated capability, or it would be
	// bandwidth-bound and not solved here.
	lo, hi := uint64(0), math.Float64bits(a.maxU)
	x := math.Float64bits(a.estimate(l))
	x = min(max(x, 1), hi) // a NaN or negative estimate has bits above hi
	if x < hi {
		w.rises++
		if a.rises(l, math.Float64frombits(x)) != 0 {
			lo = x
			for d := uint64(1); hi-x > d; d <<= 1 {
				w.rises++
				if a.rises(l, math.Float64frombits(x+d)) == 0 {
					hi = x + d
					break
				}
				lo = x + d
			}
		} else {
			hi = x
			for d := uint64(1); x-lo > d; d <<= 1 {
				w.rises++
				if a.rises(l, math.Float64frombits(x-d)) != 0 {
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
		if a.rises(l, math.Float64frombits(mid)) != 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// estimate approximates l's fixed point by Newton's method on
// f(ρ) = ρ − k/cpi(ρ), where cpi(ρ) = b + eg·ρ³/(1−ρ) is the CPI with
// e = exposed·latNs·fg, b = base + e and eg = e·QueueGain, and k/cpi the
// implied utilisation. f is below zero at 0 and above it at maxU, and
// each step keeps that bracket: a step that leaves it takes the
// bracket's midpoint instead. It starts at min(k/b, maxU), at or above
// the root, and stops when a step moves less than 2^-26 of ρ, so that
// the last step left rounding alone. Every product is rounded before it
// is summed, so the estimate, and the search's work after it, are the
// same on every target.
func (a *point) estimate(l *lane) float64 {
	e := float64(float64(l.exposed*a.latNs) * l.fg)
	eg := float64(e * a.mem.QueueGain)
	b := l.base + e
	k := l.demand(1) / a.cap
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

// rises returns all ones when the utilisation l's demand at rho implies
// exceeds rho (rho-u is negative), and zero otherwise. The implied
// utilisation is u clamped to maxU, but the clamp never decides: below
// maxU it keeps the comparison's outcome, and at maxU itself u is below
// maxU, or the phase would be bandwidth-bound and not solved. A NaN u
// may go either way; only a phase whose CPI diverges makes one.
func (a *point) rises(l *lane, rho float64) uint64 {
	u := l.demand(a.cpi(l, rho)) / a.cap
	return uint64(int64(math.Float64bits(rho-u)) >> 63)
}

// below returns all ones when the positive float x is below the one
// whose bits are t, and zero otherwise.
func below(x float64, t uint64) uint64 {
	return uint64(int64(math.Float64bits(x)-t) >> 63)
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
