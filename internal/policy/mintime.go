package policy

import (
	"fmt"

	"goear/internal/model"
)

// minTimeDefaultDrop is how many pstates below nominal min_time's
// default frequency sits: the policy starts from a moderate frequency
// and *raises* it while the application proves it benefits.
const minTimeDefaultDrop = 4

// minTime is min_time_to_solution: starting from its (lower) default
// frequency, it raises the CPU frequency one pstate at a time while the
// predicted time gain per step stays above minTimeMinGain — applications
// that do not scale with frequency stay low, frequency-sensitive ones
// climb to nominal. The paper lists this policy's eUFS integration as
// ongoing work; it is provided here with the same uncore stage as
// min_energy (via the shared eufs wrapper).
type minTime struct {
	cfg Config

	// tbl is the per-signature-window prediction table; its buffer is
	// reused across windows.
	tbl model.Table

	defPst    int
	selected  int
	havePred  bool
	predCPI   float64
	predTime  float64
	predPower float64
	refTime   float64 // projection onto the policy's default pstate
	refPower  float64
}

func newMinTime(cfg Config) *minTime {
	def := cfg.DefaultPstate + minTimeDefaultDrop
	if max := cfg.Model.PstateCount() - 1; def > max {
		def = max
	}
	return &minTime{cfg: cfg, defPst: def, selected: def}
}

func (p *minTime) Name() string   { return MinTime }
func (p *minTime) config() Config { return p.cfg }

func (p *minTime) Apply(in Inputs) (NodeFreqs, State, error) {
	if !in.Sig.Valid() {
		return NodeFreqs{}, Ready, fmt.Errorf("policy %s: invalid signature", p.Name())
	}
	sig := in.Sig
	from := in.CurrentPstate

	if isBusyWaiting(sig) {
		// No benefit from frequency for a spinning host core.
		sel := p.defPst
		p.selected = sel
		p.havePred = false
		p.predTime, p.predPower, p.refTime, p.refPower = 0, 0, 0, 0
		return NodeFreqs{CPUPstate: sel}, Ready, nil
	}

	// One table build per signature window; the climb is lookups with
	// bit-identical values to per-pstate Predict calls.
	if err := p.cfg.Model.BuildTable(&p.tbl, sig, from, p.cfg.UseAVX512Model); err != nil {
		return NodeFreqs{}, Ready, err
	}

	sel := p.defPst
	cur := p.tbl.Preds[sel]
	// Climb toward pstate 1 (nominal) while each step still buys at
	// least minTimeMinGain of relative time.
	for ps := sel - 1; ps >= 1; ps-- {
		next := p.tbl.Preds[ps]
		gain := (cur.TimeSec - next.TimeSec) / cur.TimeSec
		if gain < minTimeMinGain {
			break
		}
		sel, cur = ps, next
	}
	p.selected = sel
	p.predCPI = cur.CPI
	p.predTime, p.predPower = cur.TimeSec, cur.PowerW
	ref := p.tbl.Preds[p.defPst]
	p.refTime, p.refPower = ref.TimeSec, ref.PowerW
	p.havePred = true
	return NodeFreqs{CPUPstate: sel}, Ready, nil
}

func (p *minTime) Validate(in Inputs) bool {
	if !p.havePred {
		return true
	}
	margin := p.cfg.SigChangeTh + minTimeMinGain
	return p.predCPI <= 0 || in.Sig.CPI <= p.predCPI*(1+margin)
}

func (p *minTime) Default() NodeFreqs {
	return NodeFreqs{CPUPstate: p.defPst}
}

// LastPrediction implements Predictor.
func (p *minTime) LastPrediction() (PredictionView, bool) {
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

func (p *minTime) Reset() {
	p.selected = p.defPst
	p.havePred = false
	p.predCPI = 0
	p.predTime, p.predPower = 0, 0
	p.refTime, p.refPower = 0, 0
}
