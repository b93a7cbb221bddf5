// Package workload defines the applications the paper evaluates as
// phase-based synthetic workloads, and calibrates them against the
// published signatures.
//
// Each Spec records the *published* behaviour of one application at
// nominal frequency (execution time, CPI, GB/s, average DC node power —
// Tables I, II and V of the paper) plus structural facts (nodes, active
// cores, iteration period, MPI calls per iteration) and the silicon's
// observed uncore-heuristic response for that access pattern. Calibrate
// inverts the execution and power models so that simulating the workload
// at nominal frequency reproduces the published signature; everything the
// *policies* do to it afterwards is emergent model behaviour.
package workload

import (
	"fmt"
	"math"

	"goear/internal/perf"
	"goear/internal/power"
	"goear/internal/uncore"
)

// Platform couples the machine model and power coefficients of one node
// type.
type Platform struct {
	Name    string
	Machine perf.Machine
	Power   power.Coeffs
}

// Class is the paper's coarse application taxonomy.
type Class string

// Workload classes as the paper groups them in §VI-B.
const (
	cpuBound    Class = "cpu-bound"
	memBound    Class = "mem-bound"
	Accelerator Class = "accelerator"
)

// Segment is one computational phase of a workload, described by its
// published signature at nominal frequency.
type Segment struct {
	// FracIters is this segment's share of the workload's iterations.
	FracIters float64 `json:"frac_iters,omitempty"`
	// TargetCPI, TargetGBs, TargetPowerW are the published per-node
	// signature at nominal core and HW-selected uncore frequency.
	TargetCPI    float64 `json:"target_cpi"`
	TargetGBs    float64 `json:"target_gbs"`
	TargetPowerW float64 `json:"target_power_w"`
	// VPI is the AVX512 instruction fraction.
	VPI float64 `json:"vpi,omitempty"`
	// OverlapHint seeds the calibration's memory-level-parallelism
	// parameter (raised automatically if the targets require it).
	OverlapHint float64 `json:"overlap_hint,omitempty"`
	// CoreCPIFrac, when positive, fixes the core-bound share of the
	// target CPI instead of deriving it from OverlapHint. It encodes
	// the application's observed DVFS response: the paper's Table VI
	// shows how far min_energy could lower each application's CPU
	// frequency, which pins down how much of its CPI scales with the
	// core clock.
	CoreCPIFrac float64 `json:"core_cpi_frac,omitempty"`
}

// Spec describes one catalogue application.
type Spec struct {
	Name      string
	Class     Class
	ProgModel string // "OpenMP", "MPI", "MPI+OpenMP", "CUDA", "MKL"
	Platform  Platform

	Nodes          int
	ProcsPerNode   int
	ThreadsPerProc int
	ActiveCores    int // cores busy per node

	// TargetTimeSec is the published execution time at nominal frequency.
	TargetTimeSec float64

	// Segments of the execution; when empty, DefaultSegment is used.
	Segments []Segment
	// DefaultSegment carries the headline published signature.
	DefaultSegment Segment

	// IterPeriodSec is the outer-iteration duration at nominal
	// frequency; Dynais detects this structure.
	IterPeriodSec float64
	// MPICallsPerIter is the number of MPI events per inner loop pass
	// (zero for non-MPI workloads, which EARL then time-guides).
	MPICallsPerIter int
	// InnerLoopsPerIter emits the MPI pattern this many times per outer
	// iteration (default 1): values above 1 model nested structure —
	// an inner solver loop inside the outer time step — which Dynais
	// surfaces as a second detection level.
	InnerLoopsPerIter int

	// HWUncore is the silicon uncore-heuristic response calibrated from
	// the paper's measurements for this access pattern.
	HWUncore uncore.Curve

	// GPUPowerW is the constant accelerator power draw while the
	// workload runs (CUDA kernels only).
	GPUPowerW float64

	// FreqBias is the ratio of measured average core frequency to the
	// effective frequency (halted cycles, per-core idling); IMCBias the
	// same for the uncore. Both apply to reported metrics only.
	FreqBias float64
	IMCBias  float64
}

// validate reports whether the spec is usable.
func (s Spec) validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("workload: empty name")
	case s.Nodes <= 0:
		return fmt.Errorf("workload %s: nodes must be positive", s.Name)
	case s.ActiveCores <= 0:
		return fmt.Errorf("workload %s: active cores must be positive", s.Name)
	case s.ActiveCores > s.Platform.Machine.CPU.TotalCores():
		return fmt.Errorf("workload %s: %d active cores exceed node's %d",
			s.Name, s.ActiveCores, s.Platform.Machine.CPU.TotalCores())
	case s.TargetTimeSec <= 0:
		return fmt.Errorf("workload %s: target time must be positive", s.Name)
	case s.IterPeriodSec <= 0:
		return fmt.Errorf("workload %s: iteration period must be positive", s.Name)
	case s.MPICallsPerIter < 0:
		return fmt.Errorf("workload %s: MPI calls per iteration must be non-negative", s.Name)
	case s.InnerLoopsPerIter < 0:
		return fmt.Errorf("workload %s: inner loops per iteration must be non-negative", s.Name)
	case s.FreqBias <= 0 || s.FreqBias > 1:
		return fmt.Errorf("workload %s: frequency bias %g outside (0,1]", s.Name, s.FreqBias)
	case s.IMCBias <= 0 || s.IMCBias > 1:
		return fmt.Errorf("workload %s: IMC bias %g outside (0,1]", s.Name, s.IMCBias)
	case s.GPUPowerW < 0:
		return fmt.Errorf("workload %s: GPU power must be non-negative", s.Name)
	}
	if err := s.HWUncore.Validate(); err != nil {
		return fmt.Errorf("workload %s: HW uncore curve: %w", s.Name, err)
	}
	segs := s.Segments
	if len(segs) == 0 {
		segs = []Segment{s.DefaultSegment}
	}
	total := 0.0
	for i, g := range segs {
		if g.TargetCPI <= 0 || g.TargetGBs < 0 || g.TargetPowerW <= 0 {
			return fmt.Errorf("workload %s: segment %d targets invalid", s.Name, i)
		}
		if g.VPI < 0 || g.VPI > 1 {
			return fmt.Errorf("workload %s: segment %d VPI %g outside [0,1]", s.Name, i, g.VPI)
		}
		if g.CoreCPIFrac < 0 || g.CoreCPIFrac > 1 {
			return fmt.Errorf("workload %s: segment %d core CPI fraction %g outside [0,1]", s.Name, i, g.CoreCPIFrac)
		}
		if len(s.Segments) > 0 {
			if g.FracIters <= 0 {
				return fmt.Errorf("workload %s: segment %d fraction must be positive", s.Name, i)
			}
			total += g.FracIters
		}
	}
	if len(s.Segments) > 0 && math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("workload %s: segment fractions sum to %g, want 1", s.Name, total)
	}
	return nil
}

// CalSegment is a calibrated execution phase.
type CalSegment struct {
	Segment
	// Phase reproduces the published CPI/GB/s through perf.Evaluate at
	// the nominal operating point.
	Phase perf.Phase
	// Activity reproduces the published DC power through power.Node.
	Activity float64
	// Iterations is the number of outer iterations in this segment.
	Iterations int
	// InstrPerIter is retired instructions per active core per
	// iteration (so that at nominal frequency an iteration takes
	// IterPeriodSec).
	InstrPerIter float64
}

// Calibrated is a Spec with solved model parameters.
type Calibrated struct {
	Spec
	// NominalOp is the operating point the calibration used: the
	// nominal core ratio and the uncore ratio the HW heuristic settles
	// at for this workload.
	NominalOp perf.Operating
	Segs      []CalSegment
}

// Calibrate solves the model parameters for every segment.
func (s Spec) Calibrate() (Calibrated, error) {
	if err := s.validate(); err != nil {
		return Calibrated{}, err
	}
	m := s.Platform.Machine
	nominal := m.CPU.NominalRatio

	segs := s.Segments
	if len(segs) == 0 {
		d := s.DefaultSegment
		d.FracIters = 1
		segs = []Segment{d}
	}

	// The HW heuristic's settling point at nominal frequency, clamped
	// to the hardware window, defines the calibration operating point.
	// The heuristic sees the licence-resolved core ratio, so an AVX512
	// workload (DGEMM) drives it from the licence frequency.
	avxActive := segs[0].VPI > 0.5
	hwRatio := clampRatio(s.HWUncore.Target(m.CPU.EffectiveRatio(nominal, avxActive)),
		m.CPU.UncoreMinRatio, m.CPU.UncoreMaxRatio)
	op := perf.Operating{CoreRatio: nominal, UncoreRatio: hwRatio}

	totalIters := int(math.Round(s.TargetTimeSec / s.IterPeriodSec))
	if totalIters < 1 {
		totalIters = 1
	}

	out := Calibrated{Spec: s, NominalOp: op}
	assigned := 0
	for i, g := range segs {
		proto := perf.Phase{VPI: g.VPI, Overlap: g.OverlapHint, ActiveCores: s.ActiveCores}
		var ph perf.Phase
		var err error
		if g.CoreCPIFrac > 0 {
			ph, err = perf.SolveWithCoreFrac(m, proto, op, g.TargetCPI, g.TargetGBs, g.CoreCPIFrac)
		} else {
			ph, err = perf.SolveBaseCPI(m, proto, op, g.TargetCPI, g.TargetGBs)
		}
		if err != nil {
			return Calibrated{}, fmt.Errorf("workload %s segment %d: %w", s.Name, i, err)
		}
		res, err := perf.Evaluate(m, ph, op)
		if err != nil {
			return Calibrated{}, fmt.Errorf("workload %s segment %d: %w", s.Name, i, err)
		}
		in := power.Input{
			CoreFreqGHz:   res.EffCoreFreq.GHzF(),
			UncoreFreqGHz: res.UncoreFreq.GHzF(),
			Sockets:       m.CPU.Sockets,
			ActiveCores:   s.ActiveCores,
			GBs:           res.NodeGBs,
			GPUPower:      s.GPUPowerW,
		}
		act, err := s.Platform.Power.SolveActivity(in, g.TargetPowerW)
		if err != nil {
			return Calibrated{}, fmt.Errorf("workload %s segment %d: %w", s.Name, i, err)
		}
		iters := int(math.Round(g.FracIters * float64(totalIters)))
		if i == len(segs)-1 {
			iters = totalIters - assigned // absorb rounding
		}
		if iters < 1 {
			iters = 1
		}
		assigned += iters
		out.Segs = append(out.Segs, CalSegment{
			Segment:      g,
			Phase:        ph,
			Activity:     act,
			Iterations:   iters,
			InstrPerIter: s.IterPeriodSec * res.IPSCore,
		})
	}
	return out, nil
}

func clampRatio(r, lo, hi uint64) uint64 {
	if r < lo {
		return lo
	}
	if r > hi {
		return hi
	}
	return r
}

// AppendMPIEvents writes the per-iteration MPI event sequence of the
// workload into dst (reusing its capacity) and returns the result: a
// deterministic cycle of call-site identifiers that Dynais consumes to
// detect the outer loop, empty for non-MPI workloads. Per-run state
// that is recycled across runs keeps one event buffer instead of
// reallocating per iteration or per run.
func (s Spec) AppendMPIEvents(dst []uint32) []uint32 {
	dst = dst[:0]
	if s.MPICallsPerIter == 0 {
		return dst
	}
	for i := 0; i < s.MPICallsPerIter; i++ {
		// Call-site identifiers: stable hash of name and position.
		h := uint32(2166136261)
		for _, c := range s.Name {
			h = (h ^ uint32(c)) * 16777619
		}
		dst = append(dst, h^uint32(i+1))
	}
	return dst
}
