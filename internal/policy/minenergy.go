package policy

import (
	"fmt"

	"goear/internal/model"
)

// monitoring is the no-optimisation policy: it observes signatures and
// never moves frequencies away from the defaults.
type monitoring struct{ cfg Config }

func (m *monitoring) Name() string { return Monitoring }

func (m *monitoring) Apply(in Inputs) (NodeFreqs, State, error) {
	return NodeFreqs{CPUPstate: in.CurrentPstate}, Ready, nil
}

func (m *monitoring) Validate(Inputs) bool { return true }

func (m *monitoring) Default() NodeFreqs {
	return NodeFreqs{CPUPstate: m.cfg.DefaultPstate}
}

func (m *monitoring) LastPrediction() (PredictionView, bool) { return PredictionView{}, false }

func (m *monitoring) Reset() {}

// minEnergy is the basic min_energy_to_solution algorithm: a linear
// search over pstates selecting the minimum predicted energy whose
// predicted time stays below time·(1+cpu_policy_th), where time is the
// projection onto the default pstate (§V-B).
type minEnergy struct{ cpuStage }

func (p *minEnergy) init(cfg Config) *minEnergy {
	p.cpuStage.init(cfg, cfg.DefaultPstate, cfg.SigChangeTh+cfg.CPUPolicyTh)
	return p
}

func (p *minEnergy) Name() string { return MinEnergy }

func (p *minEnergy) Apply(in Inputs) (NodeFreqs, State, error) {
	if !in.Sig.Valid() {
		return NodeFreqs{}, Ready, fmt.Errorf("policy %s: invalid signature", p.Name())
	}
	def := p.def

	// Busy-waiting phases make no observable progress per cycle, so the
	// prediction-based search does not apply: EAR drops a bounded
	// number of pstates to harvest the idle host core. With no search,
	// one projection serves, not the window's table.
	if isBusyWaiting(in.Sig) {
		sel := min(def+busyWaitPstateDrop, p.cfg.Model.PstateCount()-1)
		predict := p.cfg.Model.PredictDefault
		if p.cfg.UseAVX512Model {
			predict = p.cfg.Model.Predict
		}
		pred, err := predict(in.Sig, in.CurrentPstate, sel)
		if err != nil {
			return NodeFreqs{}, Ready, err
		}
		// The host core's spinning does not gate the accelerator:
		// expected time is unchanged, no default-pstate reference
		// applies, and a spinning core's CPI has nothing to validate.
		p.project(model.Prediction{TimeSec: in.Sig.IterTimeSec, PowerW: pred.PowerW}, model.Prediction{})
		return NodeFreqs{CPUPstate: sel}, Ready, nil
	}

	preds, err := p.table(in)
	if err != nil {
		return NodeFreqs{}, Ready, err
	}

	// Reference time: the projection of the current signature onto the
	// default pstate (the penalty budget is relative to default).
	ref := preds[def]
	limit := ref.TimeSec * (1 + p.cfg.CPUPolicyTh)

	best, bestPred := def, ref
	bestEnergy := ref.TimeSec * ref.PowerW
	for ps := def; ps < len(preds); ps++ {
		pred := preds[ps]
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
	p.project(bestPred, ref)
	return NodeFreqs{CPUPstate: best}, Ready, nil
}
