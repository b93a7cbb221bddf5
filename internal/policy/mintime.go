package policy

import "fmt"

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
type minTime struct{ cpuStage }

func (p *minTime) init(cfg Config) *minTime {
	def := min(cfg.DefaultPstate+minTimeDefaultDrop, cfg.Model.PstateCount()-1)
	p.cpuStage.init(cfg, def, cfg.SigChangeTh+minTimeMinGain)
	return p
}

func (p *minTime) Name() string { return MinTime }

func (p *minTime) Apply(in Inputs) (NodeFreqs, State, error) {
	if !in.Sig.Valid() {
		return NodeFreqs{}, Ready, fmt.Errorf("policy %s: invalid signature", p.Name())
	}
	if isBusyWaiting(in.Sig) {
		// No benefit from frequency for a spinning host core.
		p.Reset()
		return NodeFreqs{CPUPstate: p.def}, Ready, nil
	}
	preds, err := p.table(in)
	if err != nil {
		return NodeFreqs{}, Ready, err
	}

	sel := p.def
	cur := preds[sel]
	// Climb toward pstate 1 (nominal) while each step still buys at
	// least minTimeMinGain of relative time.
	for ps := sel - 1; ps >= 1; ps-- {
		next := preds[ps]
		gain := (cur.TimeSec - next.TimeSec) / cur.TimeSec
		if gain < minTimeMinGain {
			break
		}
		sel, cur = ps, next
	}
	p.project(cur, preds[p.def])
	return NodeFreqs{CPUPstate: sel}, Ready, nil
}
