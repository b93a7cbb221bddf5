package sim

import (
	"fmt"

	"goear/internal/telemetry"
)

// RecordDecisions feeds the run's decision log into a telemetry event
// recorder: one policy.decision event per EARL event, node order then
// event order. Callers invoke it after the run completes, so recording
// order — and therefore the /events payload — stays deterministic
// regardless of the worker count the run used. Requires
// Options.DecisionLog; without it nothing is recorded.
func (r *Result) RecordDecisions(rec *telemetry.Recorder) {
	for nodeID := range r.Nodes {
		for _, d := range r.Nodes[nodeID].Decisions {
			ev := telemetry.Event{
				TimeSec: d.TimeSec,
				Kind:    "policy.decision",
				Src:     fmt.Sprintf("node%d", nodeID),
				Str: map[string]string{
					"policy": r.Policy,
					"state":  d.State.String(),
				},
				Num: map[string]float64{
					"cpu_pstate": float64(d.Freqs.CPUPstate),
					"cpi":        d.Sig.CPI,
					"gbs":        d.Sig.GBs,
					"dc_power_w": d.Sig.DCPowerW,
				},
			}
			if d.Applied {
				ev.Str["policy_state"] = d.PolicyState.String()
			}
			if d.Freqs.SetIMC {
				ev.Num["imc_min"] = float64(d.Freqs.IMCMinRatio)
				ev.Num["imc_max"] = float64(d.Freqs.IMCMaxRatio)
			}
			if p := d.Pred; d.HavePred && (p.TimeSec != 0 || p.PowerW != 0) {
				ev.Num["pred_time_s"] = p.TimeSec
				ev.Num["pred_power_w"] = p.PowerW
				// Predicted-vs-actual energy: predicted iteration energy
				// against the measured signature's power over the same
				// predicted time.
				ev.Num["pred_energy_j"] = p.TimeSec * p.PowerW
				ev.Num["actual_energy_j"] = p.TimeSec * d.Sig.DCPowerW
			}
			rec.Record(ev)
		}
	}
}
