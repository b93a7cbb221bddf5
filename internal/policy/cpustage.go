package policy

import "goear/internal/model"

// cpuStage is the CPU frequency stage min_energy and min_time share:
// the Config, the window's prediction table, the projection behind the
// last selection and the check a later signature must pass against it.
// It implements every entry point but Name and Apply.
type cpuStage struct {
	cfg Config
	// def is the policy's default pstate, the one set_def restores.
	def int
	// margin is how far, relative, a measured CPI may exceed the
	// predicted one before Validate fails.
	margin float64

	// tbl is the per-signature-window prediction table; its buffer is
	// reused across windows.
	tbl model.Table

	havePred bool
	pred     PredictionView
	// predCPI is the CPI projected at the selection; 0 checks nothing.
	predCPI float64
}

func (s *cpuStage) config() Config { return s.cfg }

// table projects the signature, measured at the current pstate, onto
// every pstate: the window's one table build, after which a search is
// lookups with bit-identical values to per-pstate Predict calls.
func (s *cpuStage) table(in Inputs) ([]model.Prediction, error) {
	err := s.cfg.Model.BuildTable(&s.tbl, in.Sig, in.CurrentPstate, s.cfg.UseAVX512Model)
	return s.tbl.Preds, err
}

// project records the projection behind a selection: sel at the chosen
// pstate, ref at the pstate the policy's budget is relative to (zero
// when none applies).
func (s *cpuStage) project(sel, ref model.Prediction) {
	s.havePred = true
	s.pred = PredictionView{TimeSec: sel.TimeSec, PowerW: sel.PowerW, RefTimeSec: ref.TimeSec, RefPowerW: ref.PowerW}
	s.predCPI = sel.CPI
}

// Validate checks a signature measured after the selection: its CPI
// must stay within the margin of the predicted CPI. The comparison is
// written so that a NaN on either side fails it, as in Config.validate:
// a reading that is not a number does not show the selection held, and
// failing sends EARL through set_def, back to the defaults.
func (s *cpuStage) Validate(in Inputs) bool {
	return s.predCPI <= 0 || in.Sig.CPI <= s.predCPI*(1+s.margin)
}

func (s *cpuStage) Default() NodeFreqs { return NodeFreqs{CPUPstate: s.def} }

func (s *cpuStage) LastPrediction() (PredictionView, bool) { return s.pred, s.havePred }

// Reset forgets the last selection; the table's buffer stays.
func (s *cpuStage) Reset() {
	s.havePred, s.pred, s.predCPI = false, PredictionView{}, 0
}
