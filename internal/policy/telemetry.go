package policy

import (
	"sync/atomic"

	"goear/internal/telemetry"
)

// Metric names (package-level constants per the goearvet telemetry
// analyzer).
const (
	metricPolicyDecisions   = "goear_policy_decisions_total"
	metricPolicyValidations = "goear_policy_validations_total"
	metricPolicySaving      = "goear_policy_predicted_saving_pct"
)

// savingBounds buckets predicted energy savings in percent. Negative
// (prediction worse than reference) lands in the first bucket.
var savingBounds = []float64{0, 1, 2, 5, 10, 15, 20, 30, 50}

// policyTel holds the label families; per-policy handles are resolved
// when a policy is constructed (setup time), so Apply/Validate touch
// only pre-resolved counters.
type policyTel struct {
	decisions   *telemetry.CounterVec
	validations *telemetry.CounterVec
	saving      *telemetry.HistogramVec
}

var tel atomic.Pointer[policyTel]

func init() {
	telemetry.OnEnable(func(s *telemetry.Set) {
		if s == nil {
			tel.Store(nil)
			return
		}
		r := s.Registry
		t := &policyTel{
			decisions:   r.CounterVec(metricPolicyDecisions, "policy Apply results by settling state", "policy", "state"),
			validations: r.CounterVec(metricPolicyValidations, "policy Validate results", "policy", "result"),
			saving:      r.HistogramVec(metricPolicySaving, "predicted energy saving vs default-pstate reference, percent", savingBounds, "policy"),
		}
		// Pre-register the label sets of the built-in policies so a
		// scrape lists their families even before the first decision.
		for _, name := range Names() {
			t.decisions.With(name, "ready")
			t.decisions.With(name, "continue")
			t.validations.With(name, "ok")
			t.validations.With(name, "fail")
			t.saving.With(name)
		}
		tel.Store(t)
	})
}

// instrumented decorates a policy with decision counters and the
// predicted-saving histogram. It forwards Predictor so EARL's decision
// trace still sees the underlying prediction.
type instrumented struct {
	Policy
	tel     *policyTel // the families the handles below resolve into
	ready   *telemetry.Counter
	cont    *telemetry.Counter
	valOK   *telemetry.Counter
	valFail *telemetry.Counter
	saving  *telemetry.Histogram
}

// maybeInstrument wraps p when global telemetry is enabled.
func maybeInstrument(p Policy) Policy {
	t := tel.Load()
	if t == nil {
		return p
	}
	name := p.Name()
	return &instrumented{
		Policy:  p,
		tel:     t,
		ready:   t.decisions.With(name, "ready"),
		cont:    t.decisions.With(name, "continue"),
		valOK:   t.validations.With(name, "ok"),
		valFail: t.validations.With(name, "fail"),
		saving:  t.saving.With(name),
	}
}

func (p *instrumented) Apply(in Inputs) (NodeFreqs, State, error) {
	nf, st, err := p.Policy.Apply(in)
	if err != nil {
		return nf, st, err
	}
	if st == Ready {
		p.ready.Inc()
		if pr, ok := p.Policy.(Predictor); ok {
			if v, have := pr.LastPrediction(); have && v.RefTimeSec > 0 && v.RefPowerW > 0 {
				refE := v.RefTimeSec * v.RefPowerW
				p.saving.Observe((refE - v.TimeSec*v.PowerW) / refE * 100)
			}
		}
	} else {
		p.cont.Inc()
	}
	return nf, st, err
}

func (p *instrumented) Validate(in Inputs) bool {
	ok := p.Policy.Validate(in)
	if ok {
		p.valOK.Inc()
	} else {
		p.valFail.Inc()
	}
	return ok
}

// LastPrediction forwards the decorated policy's prediction view.
func (p *instrumented) LastPrediction() (PredictionView, bool) {
	if pr, ok := p.Policy.(Predictor); ok {
		return pr.LastPrediction()
	}
	return PredictionView{}, false
}
