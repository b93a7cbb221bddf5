package policy

import (
	"fmt"

	"goear/internal/metrics"
	"goear/internal/model"
)

// monitoring is the no-optimisation policy: it observes signatures and
// never moves frequencies away from the defaults.
type monitoring struct{ cfg Config }

func (m *monitoring) Name() string   { return Monitoring }
func (m *monitoring) config() Config { return m.cfg }

func (m *monitoring) Apply(in Inputs) (NodeFreqs, State, error) {
	return NodeFreqs{CPUPstate: in.CurrentPstate}, Ready, nil
}

func (m *monitoring) Validate(Inputs) bool { return true }

func (m *monitoring) Default() NodeFreqs {
	return NodeFreqs{CPUPstate: m.cfg.DefaultPstate}
}

func (m *monitoring) Reset() {}

// minEnergy is the basic min_energy_to_solution algorithm: a linear
// search over pstates selecting the minimum predicted energy whose
// predicted time stays below time·(1+cpu_policy_th), where time is the
// projection onto the default pstate (§V-B).
type minEnergy struct {
	cfg Config

	// tbl is the per-signature-window prediction table; its buffer is
	// reused across windows.
	tbl model.Table

	selected   int
	havePred   bool
	predTime   float64 // predicted iteration time at the selection
	predCPI    float64
	predPower  float64
	refTime    float64 // default-pstate projection (zero for busy-wait)
	refPower   float64
	isBusyWait bool
}

func newMinEnergy(cfg Config) *minEnergy {
	return &minEnergy{cfg: cfg, selected: cfg.DefaultPstate}
}

func (p *minEnergy) Name() string   { return MinEnergy }
func (p *minEnergy) config() Config { return p.cfg }

// predict dispatches between the AVX512-aware and the default model.
func (p *minEnergy) predict(sig metrics.Signature, from, to int) (model.Prediction, error) {
	if p.cfg.UseAVX512Model {
		return p.cfg.Model.Predict(sig, from, to)
	}
	return p.cfg.Model.PredictDefault(sig, from, to)
}

// selectPstate runs the linear search and returns the chosen pstate
// together with its prediction.
func (p *minEnergy) selectPstate(in Inputs) (int, model.Prediction, error) {
	sig := in.Sig
	from := in.CurrentPstate
	def := p.cfg.DefaultPstate

	// Busy-waiting phases make no observable progress per cycle, so the
	// prediction-based search does not apply: EAR drops a bounded
	// number of pstates to harvest the idle host core.
	if isBusyWaiting(sig) {
		sel := def + busyWaitPstateDrop
		if max := p.cfg.Model.PstateCount() - 1; sel > max {
			sel = max
		}
		pred, err := p.predict(sig, from, sel)
		if err != nil {
			return 0, model.Prediction{}, err
		}
		// The host core's spinning does not gate the accelerator:
		// expected time is unchanged. No default-pstate reference
		// applies here.
		pred.TimeSec = sig.IterTimeSec
		p.refTime, p.refPower = 0, 0
		return sel, pred, nil
	}

	// Build the window's prediction table once; the search below (and
	// the reference projection, which the former code computed twice)
	// become lookups with bit-identical values.
	if err := p.cfg.Model.BuildTable(&p.tbl, sig, from, p.cfg.UseAVX512Model); err != nil {
		return 0, model.Prediction{}, err
	}

	// Reference time: the projection of the current signature onto the
	// default pstate (the penalty budget is relative to default).
	refPred := p.tbl.Preds[def]
	limit := refPred.TimeSec * (1 + p.cfg.CPUPolicyTh)
	p.refTime, p.refPower = refPred.TimeSec, refPred.PowerW

	best := def
	bestPred := refPred
	bestEnergy := refPred.TimeSec * refPred.PowerW
	for ps := def; ps < p.cfg.Model.PstateCount(); ps++ {
		pred := p.tbl.Preds[ps]
		if pred.TimeSec > limit {
			continue
		}
		// On ties, the lower frequency wins: the AVX512 model produces
		// an exact energy plateau above the licence pstate, and the
		// licence pstate is the honest request there.
		if e := pred.TimeSec * pred.PowerW; e <= bestEnergy {
			best, bestPred, bestEnergy = ps, pred, e
		}
	}
	return best, bestPred, nil
}

func (p *minEnergy) Apply(in Inputs) (NodeFreqs, State, error) {
	if !in.Sig.Valid() {
		return NodeFreqs{}, Ready, fmt.Errorf("policy %s: invalid signature", p.Name())
	}
	sel, pred, err := p.selectPstate(in)
	if err != nil {
		return NodeFreqs{}, Ready, err
	}
	p.selected = sel
	p.predTime = pred.TimeSec
	p.predCPI = pred.CPI
	p.predPower = pred.PowerW
	p.havePred = true
	p.isBusyWait = isBusyWaiting(in.Sig)
	return NodeFreqs{CPUPstate: sel}, Ready, nil
}

// Validate checks the post-selection signature against the prediction:
// the measured CPI must not exceed the predicted CPI beyond the policy
// threshold plus model-accuracy margin.
func (p *minEnergy) Validate(in Inputs) bool {
	if !p.havePred || p.isBusyWait {
		return true
	}
	margin := p.cfg.SigChangeTh + p.cfg.CPUPolicyTh
	if p.predCPI > 0 && in.Sig.CPI > p.predCPI*(1+margin) {
		return false
	}
	return true
}

func (p *minEnergy) Default() NodeFreqs {
	return NodeFreqs{CPUPstate: p.cfg.DefaultPstate}
}

// LastPrediction implements Predictor.
func (p *minEnergy) LastPrediction() (PredictionView, bool) {
	if !p.havePred {
		return PredictionView{}, false
	}
	return PredictionView{
		TimeSec:    p.predTime,
		PowerW:     p.predPower,
		RefTimeSec: p.refTime,
		RefPowerW:  p.refPower,
	}, true
}

func (p *minEnergy) Reset() {
	p.selected = p.cfg.DefaultPstate
	p.havePred = false
	p.predTime, p.predCPI, p.predPower = 0, 0, 0
	p.refTime, p.refPower = 0, 0
	p.isBusyWait = false
}
