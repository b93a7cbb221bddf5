package policy

import (
	"fmt"

	"goear/internal/metrics"
)

// eufsStage is the state of the paper's Fig. 2 diagram.
type eufsStage int

const (
	stCPUFreqSel eufsStage = iota
	stCompRef
	stIMCFreqSel
)

// String names the stage.
func (s eufsStage) String() string {
	switch s {
	case stCPUFreqSel:
		return "CPU_FREQ_SEL"
	case stCompRef:
		return "COMP_REF"
	case stIMCFreqSel:
		return "IMC_FREQ_SEL"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// eufs wraps a CPU-frequency selection policy with the paper's explicit
// uncore frequency selection state machine:
//
//	CPU_FREQ_SEL -> COMP_REF -> IMC_FREQ_SEL (xN) -> READY
//
// CPU_FREQ_SEL runs the base algorithm. If the selection is the default
// pstate no reference recomputation is needed and the policy proceeds to
// IMC selection directly; otherwise COMP_REF records reference CPI and
// GB/s measured at the new CPU frequency. IMC_FREQ_SEL then lowers the
// *maximum* uncore ratio one step (0.1 GHz) per signature — starting
// from the hardware-selected frequency when HWGuided — until CPI or GB/s
// degrade beyond unc_policy_th, at which point the last step is reverted
// and the policy reports READY.
type eufs struct {
	name string
	base Policy
	cfg  Config

	// raiseForMemBound makes the policy pin the uncore at the hardware
	// maximum for memory-bound phases instead of searching downward
	// (min_time_to_solution's performance-first variant, §VIII).
	raiseForMemBound bool

	stage   eufsStage
	cpuSel  int
	refCPI  float64
	refGBs  float64
	curMax  uint64
	started bool
}

func newEUFS(name string, base Policy, cfg Config) *eufs {
	return &eufs{name: name, base: base, cfg: cfg, stage: stCPUFreqSel, cpuSel: cfg.DefaultPstate}
}

func (p *eufs) Name() string   { return p.name }
func (p *eufs) config() Config { return p.cfg }

func (p *eufs) Apply(in Inputs) (NodeFreqs, State, error) {
	if !in.Sig.Valid() {
		return NodeFreqs{}, Ready, fmt.Errorf("policy %s: invalid signature", p.name)
	}
	switch p.stage {
	case stCPUFreqSel:
		nf, _, err := p.base.Apply(in)
		if err != nil {
			return NodeFreqs{}, Ready, err
		}
		p.cpuSel = nf.CPUPstate
		if nf.CPUPstate == p.cfg.DefaultPstate {
			// No CPU frequency change: the current signature already
			// is the reference; go straight to IMC selection.
			return p.compRef(in)
		}
		p.stage = stCompRef
		return nf, Continue, nil

	case stCompRef:
		return p.compRef(in)

	case stIMCFreqSel:
		return p.imcStep(in)
	}
	return NodeFreqs{}, Ready, fmt.Errorf("policy %s: corrupt stage %d", p.name, p.stage)
}

// compRef records the reference metrics and issues the first IMC step.
func (p *eufs) compRef(in Inputs) (NodeFreqs, State, error) {
	p.refCPI = in.Sig.CPI
	p.refGBs = in.Sig.GBs
	p.stage = stIMCFreqSel

	if p.raiseForMemBound && metrics.Classify(in.Sig) == metrics.MemBound {
		// Performance-first: force the uncore window wide open and pin
		// the floor at the maximum, so the hardware cannot dip below
		// full mesh bandwidth while this phase runs.
		p.started = true
		p.curMax = p.cfg.UncoreMaxRatio
		return NodeFreqs{
			CPUPstate:   p.cpuSel,
			SetIMC:      true,
			IMCMaxRatio: p.cfg.UncoreMaxRatio,
			IMCMinRatio: p.cfg.UncoreMaxRatio,
		}, Ready, nil
	}

	start := p.cfg.UncoreMaxRatio
	if p.cfg.HWGuided {
		// Use the hardware's own selection as the starting point: it
		// is conservative but much closer to the optimum than the
		// maximum (§V-B).
		start = clamp(in.CurrentUncoreRatio, p.cfg.UncoreMinRatio, p.cfg.UncoreMaxRatio)
	}
	p.started = true
	if start <= p.cfg.UncoreMinRatio {
		// Nothing to lower: settle immediately, pinning the window at
		// the hardware's level so it cannot drift back up.
		p.curMax = p.cfg.UncoreMinRatio
		return p.freqs(), Ready, nil
	}
	p.curMax = p.cfg.stepUncore(start, false)
	return p.freqs(), Continue, nil
}

// imcStep evaluates the signature measured at the current uncore window
// and decides to revert, settle or keep lowering.
func (p *eufs) imcStep(in Inputs) (NodeFreqs, State, error) {
	sig := in.Sig

	// Application phase change during the search (§V-B): restart from
	// CPU frequency selection.
	if p.phaseChanged(sig) {
		p.Reset()
		def := p.base.Default()
		return def, Continue, nil
	}

	// Degradation beyond the uncore threshold: revert the last step.
	extraCPI := p.refCPI * p.cfg.UncPolicyTh
	extraGBs := p.refGBs * p.cfg.UncPolicyTh
	if sig.CPI > p.refCPI+extraCPI || sig.GBs < p.refGBs-extraGBs {
		p.curMax = p.cfg.stepUncore(p.curMax, true)
		return p.freqs(), Ready, nil
	}

	// Floor reached: accept.
	if p.curMax <= p.cfg.UncoreMinRatio {
		return p.freqs(), Ready, nil
	}

	// Keep lowering.
	p.curMax = p.cfg.stepUncore(p.curMax, false)
	return p.freqs(), Continue, nil
}

// phaseChanged detects signature changes larger than the uncore search
// itself could cause.
func (p *eufs) phaseChanged(sig metrics.Signature) bool {
	ref := metrics.Signature{CPI: p.refCPI, GBs: p.refGBs}
	// CPI *decreases* and GB/s *increases* cannot come from lowering
	// the uncore; degradations are judged by the uncore threshold
	// first, so only treat large shifts as phase changes.
	return metrics.Changed(ref, sig, p.cfg.SigChangeTh)
}

// freqs is the in-progress frequency request: CPU selection plus the
// narrowed uncore window. Only the maximum moves; the minimum stays at
// the hardware minimum (§V-B item 3) unless the PinBothLimits ablation
// is active.
func (p *eufs) freqs() NodeFreqs {
	minR := p.cfg.UncoreMinRatio
	if p.cfg.PinBothLimits {
		minR = p.curMax
	}
	return NodeFreqs{
		CPUPstate:   p.cpuSel,
		SetIMC:      true,
		IMCMaxRatio: p.curMax,
		IMCMinRatio: minR,
	}
}

// LastPrediction forwards the base policy's prediction view, so the
// eUFS wrapper stays transparent to telemetry and decision logging.
func (p *eufs) LastPrediction() (PredictionView, bool) { return p.base.LastPrediction() }

// Validate reports whether the stable behaviour still matches the
// reference within the signature-change threshold.
func (p *eufs) Validate(in Inputs) bool {
	if !p.started {
		return p.base.Validate(in)
	}
	return !p.phaseChanged(in.Sig)
}

// Default restores the base default CPU pstate and re-opens the full
// hardware uncore window.
func (p *eufs) Default() NodeFreqs {
	def := p.base.Default()
	def.SetIMC = true
	def.IMCMaxRatio = p.cfg.UncoreMaxRatio
	def.IMCMinRatio = p.cfg.UncoreMinRatio
	return def
}

func (p *eufs) Reset() {
	p.base.Reset()
	p.stage = stCPUFreqSel
	p.cpuSel = p.cfg.DefaultPstate
	p.refCPI, p.refGBs = 0, 0
	p.curMax = 0
	p.started = false
}

// stepUncore moves an uncore ceiling r one step down, held at the
// window's floor, or with raise one step up, held at its ceiling: the
// one move eUFS's search and duf's probe make.
func (c Config) stepUncore(r uint64, raise bool) uint64 {
	if raise {
		return min(r+uncoreStep, c.UncoreMaxRatio)
	}
	return max(r, c.UncoreMinRatio+uncoreStep) - uncoreStep
}

func clamp(v, lo, hi uint64) uint64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
