package sim

import "goear/internal/workload"

// Stepper drives one simulated node tick by tick through stepOnce
// alone: it never arms, so every Step pays the full inner loop (tick →
// perf evaluation → meters → controller → EARL). Its users: this
// package's identity tests, as the oracle Run's replay must equal, and
// its BenchmarkNodeTick and BenchmarkClusterSecondReference probes; and
// the repo benchmark's per-layer ledger (bench/layers.go), its one
// caller outside the package.
type Stepper struct {
	n *node
}

// NewStepper builds a node ready to step through the calibrated
// workload. Options are defaulted exactly as Run does.
func NewStepper(cal workload.Calibrated, nodeID int, opt Options) (*Stepper, error) {
	opt = opt.WithDefaults()
	if err := checkModel(cal, opt); err != nil {
		return nil, err
	}
	n, err := newNode(&cal, nodeID, opt)
	if err != nil {
		return nil, err
	}
	return &Stepper{n: n}, nil
}

// Step advances the node by at most one simulation step. Stepping a
// finished node is a no-op.
func (s *Stepper) Step() error { return s.n.stepOnce() }

// Done reports whether the workload has completed.
func (s *Stepper) Done() bool { return s.n.done }
