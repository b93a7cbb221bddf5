package sim

import (
	"goear/internal/policy"
	"goear/internal/telemetry"
)

// Metric names.
const (
	metricSimSteps          = "goear_sim_steps_total"
	metricSimReplayed       = "goear_sim_replayed_steps_total"
	metricSimReplaySpans    = "goear_sim_replay_spans_total"
	metricSimMPIEvents      = "goear_sim_mpi_events_total"
	metricSimSignatures     = "goear_sim_signatures_total"
	metricSimNodeRuns       = "goear_sim_node_runs_total"
	metricSimRecycles       = "goear_sim_pool_recycles_total"
	metricPolicyDecisions   = "goear_policy_decisions_total"
	metricPolicyValidations = "goear_policy_validations_total"
	metricPolicySaving      = "goear_policy_predicted_saving_pct"
)

// savingBounds buckets predicted energy savings in percent. Negative
// (prediction worse than reference) lands in the first bucket.
var savingBounds = []float64{0, 1, 2, 5, 10, 15, 20, 30, 50}

// simTel is a node's instrument bundle, resolved from the set of the
// run's Options.Telemetry and nil when the run carries none. A node
// keeps it while its runs carry the same set. flushTel adds the node's
// plain step tallies in one Add each, so the per-step hot path carries
// no atomics for telemetry. steps − replayed is the number of ticks that
// took the slow path, replayed ÷ spans the mean span an armed node
// moved in one replay; mpiEvents and signatures say what those slow ticks
// did at their iteration boundaries (events delivered to EARL per slow
// step, signatures per run). The policy families count the decisions of
// the node's policy through the counted decorator.
type simTel struct {
	set        *telemetry.Set
	steps      *telemetry.Counter
	replayed   *telemetry.Counter
	spans      *telemetry.Counter
	mpiEvents  *telemetry.Counter
	signatures *telemetry.Counter
	runs       *telemetry.Counter
	recycles   *telemetry.Counter

	decisions   *telemetry.CounterVec
	validations *telemetry.CounterVec
	saving      *telemetry.HistogramVec
}

// newSimTel resolves the instruments of set, nil for a nil set.
func newSimTel(set *telemetry.Set) *simTel {
	if set == nil {
		return nil
	}
	r := set.Registry
	t := &simTel{
		set:         set,
		steps:       r.Counter(metricSimSteps, "simulation steps executed"),
		replayed:    r.Counter(metricSimReplayed, "simulation steps advanced by armed replay"),
		spans:       r.Counter(metricSimReplaySpans, "armed replays that advanced at least one step"),
		mpiEvents:   r.Counter(metricSimMPIEvents, "MPI events delivered to EARL at iteration boundaries"),
		signatures:  r.Counter(metricSimSignatures, "EARL signatures computed"),
		runs:        r.Counter(metricSimNodeRuns, "node runs completed"),
		recycles:    r.Counter(metricSimRecycles, "node allocations recycled from the pool"),
		decisions:   r.CounterVec(metricPolicyDecisions, "policy Apply results by settling state", "policy", "state"),
		validations: r.CounterVec(metricPolicyValidations, "policy Validate results", "policy", "result"),
		saving:      r.HistogramVec(metricPolicySaving, "predicted energy saving vs default-pstate reference, percent", savingBounds, "policy"),
	}
	// Pre-register the label sets of the built-in policies so a scrape
	// lists their families even before the first decision.
	for _, name := range policy.Names() {
		t.decisions.With(name, "ready")
		t.decisions.With(name, "continue")
		t.validations.With(name, "ok")
		t.validations.With(name, "fail")
		t.saving.With(name)
	}
	return t
}

// flushTel adds the node's step tallies to its bundle's counters and
// zeroes them, so a run is counted once however often its results are
// read. Run and Batch.results call it; a Stepper never reports.
func (n *node) flushTel() {
	tl := n.tel
	if tl == nil || n.stepCount == 0 {
		return
	}
	tl.runs.Inc()
	tl.steps.Add(n.stepCount)
	tl.replayed.Add(n.replayed)
	tl.spans.Add(n.spans)
	tl.mpiEvents.Add(n.mpiCount)
	if n.lib != nil {
		tl.signatures.Add(uint64(n.lib.Signatures()))
	}
	n.stepCount, n.replayed, n.spans, n.mpiCount = 0, 0, 0, 0
}

// counted decorates a policy with decision counters and the
// predicted-saving histogram; the handles resolve when it is built (run
// setup), never inside Apply/Validate. The embedded policy's
// LastPrediction is EARL's decision trace's, unchanged.
type counted struct {
	policy.Policy
	tel     *simTel // the bundle the handles below resolve into
	ready   *telemetry.Counter
	cont    *telemetry.Counter
	valOK   *telemetry.Counter
	valFail *telemetry.Counter
	saving  *telemetry.Histogram
}

// count returns p counted into the bundle, reusing kept when it already
// counts p there.
func (t *simTel) count(kept *counted, p policy.Policy) *counted {
	if kept != nil && kept.tel == t && kept.Policy == p {
		return kept
	}
	name := p.Name()
	return &counted{
		Policy:  p,
		tel:     t,
		ready:   t.decisions.With(name, "ready"),
		cont:    t.decisions.With(name, "continue"),
		valOK:   t.validations.With(name, "ok"),
		valFail: t.validations.With(name, "fail"),
		saving:  t.saving.With(name),
	}
}

func (p *counted) Apply(in policy.Inputs) (policy.NodeFreqs, policy.State, error) {
	nf, st, err := p.Policy.Apply(in)
	if err != nil {
		return nf, st, err
	}
	if st == policy.Ready {
		p.ready.Inc()
		if v, have := p.LastPrediction(); have && v.RefTimeSec > 0 && v.RefPowerW > 0 {
			refE := v.RefTimeSec * v.RefPowerW
			p.saving.Observe((refE - v.TimeSec*v.PowerW) / refE * 100)
		}
	} else {
		p.cont.Inc()
	}
	return nf, st, err
}

func (p *counted) Validate(in policy.Inputs) bool {
	ok := p.Policy.Validate(in)
	if ok {
		p.valOK.Inc()
	} else {
		p.valFail.Inc()
	}
	return ok
}
