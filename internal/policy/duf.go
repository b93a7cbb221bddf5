package policy

import (
	"fmt"

	"goear/internal/metrics"
)

// dufIPCTolerance is the relative IPC degradation the controller
// accepts per probe step, following André et al.'s published setting.
const dufIPCTolerance = 0.02

// duf reimplements the class of controller-based uncore policies the
// paper compares against in §VII (André et al.'s DUF, and Gholkar et
// al.'s Uncore Power Scavenger): no energy model and no CPU DVFS — the
// controller keeps probing one uncore step down and watches direct
// feedback (IPC and memory bandwidth); if the step hurt, it backs off
// and holds; if a phase change is detected, it releases the uncore and
// starts over.
//
// It exists as a baseline so experiments can contrast EAR's
// model+threshold design (coordinated CPU and uncore selection,
// explicit user-facing penalty bounds) with a pure-feedback controller.
type duf struct {
	cfg Config

	haveRef bool
	refIPC  float64
	refGBs  float64
	curMax  uint64
	holding bool
}

func (p *duf) init(cfg Config) *duf {
	*p = duf{cfg: cfg, curMax: cfg.UncoreMaxRatio}
	return p
}

func (p *duf) Name() string { return DUF }

// ipc converts the signature's CPI to instructions per cycle, the
// metric the published controllers regulate on.
func ipc(sig metrics.Signature) float64 {
	if sig.CPI <= 0 {
		return 0
	}
	return 1 / sig.CPI
}

func (p *duf) Apply(in Inputs) (NodeFreqs, State, error) {
	if !in.Sig.Valid() {
		return NodeFreqs{}, Ready, fmt.Errorf("policy %s: invalid signature", p.Name())
	}
	sig := in.Sig

	if !p.haveRef {
		// First signature of a phase: record the reference and start
		// probing from the hardware's current operating point.
		p.refIPC = ipc(sig)
		p.refGBs = sig.GBs
		p.haveRef = true
		p.holding = false
		p.curMax = clamp(in.CurrentUncoreRatio, p.cfg.UncoreMinRatio, p.cfg.UncoreMaxRatio)
		return p.step(in)
	}

	// Phase-change release: large IPC or bandwidth *improvement* means
	// new behaviour the lowered uncore may now be throttling.
	if ipc(sig) > p.refIPC*(1+p.cfg.SigChangeTh) || sig.GBs > p.refGBs*(1+p.cfg.SigChangeTh) {
		p.Reset()
		return p.Default(), Continue, nil
	}

	// Degradation beyond tolerance: back off one step and hold.
	if ipc(sig) < p.refIPC*(1-dufIPCTolerance) || sig.GBs < p.refGBs*(1-dufIPCTolerance) {
		p.curMax = p.cfg.stepUncore(p.curMax, true)
		p.holding = true
		return p.freqs(in), Ready, nil
	}

	if p.holding {
		return p.freqs(in), Ready, nil
	}
	return p.step(in)
}

// step lowers the ceiling one notch, or holds once it is at the floor.
func (p *duf) step(in Inputs) (NodeFreqs, State, error) {
	if p.curMax <= p.cfg.UncoreMinRatio {
		p.holding = true
		return p.freqs(in), Ready, nil
	}
	p.curMax = p.cfg.stepUncore(p.curMax, false)
	return p.freqs(in), Continue, nil
}

// freqs never touches the CPU pstate: the published controllers manage
// only the uncore.
func (p *duf) freqs(in Inputs) NodeFreqs {
	return NodeFreqs{
		CPUPstate:   in.CurrentPstate,
		SetIMC:      true,
		IMCMaxRatio: p.curMax,
		IMCMinRatio: p.cfg.UncoreMinRatio,
	}
}

// Validate keeps watching the feedback while settled; a violation sends
// EARL back through set_def and a fresh probe descent.
func (p *duf) Validate(in Inputs) bool {
	if !p.haveRef {
		return true
	}
	sig := in.Sig
	if ipc(sig) < p.refIPC*(1-2*dufIPCTolerance) {
		return false
	}
	if sig.GBs > 1 && sig.GBs < p.refGBs*(1-2*dufIPCTolerance) {
		return false
	}
	return true
}

// LastPrediction reports none: the controller has no model.
func (p *duf) LastPrediction() (PredictionView, bool) { return PredictionView{}, false }

func (p *duf) Default() NodeFreqs {
	return NodeFreqs{
		CPUPstate:   p.cfg.DefaultPstate,
		SetIMC:      true,
		IMCMaxRatio: p.cfg.UncoreMaxRatio,
		IMCMinRatio: p.cfg.UncoreMinRatio,
	}
}

func (p *duf) Reset() {
	p.haveRef = false
	p.refIPC, p.refGBs = 0, 0
	p.curMax = p.cfg.UncoreMaxRatio
	p.holding = false
}
