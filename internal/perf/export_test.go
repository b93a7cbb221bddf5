package perf

import (
	"goear/internal/cpu"
	"goear/internal/units"
)

// EvaluateAllWork is EvaluateAll for the external tests, with the work
// it did: the evaluations of rises the exact search made.
func EvaluateAllWork(m Machine, op Operating, phases []Phase, out []Result) (n, rises int, err error) {
	n, w, err := evaluateAll(m, op, phases, out)
	return n, w.rises, err
}

// FixedPoint is one phase's utilisation fixed point at one operating
// point, as the exact search sees it.
type FixedPoint struct {
	a  point
	ph phaseAt
}

// NewFixedPoint returns phase p's fixed point at op on m, and whether
// EvaluateAll searches for it: false when p moves no data or is
// bandwidth-bound.
func NewFixedPoint(m Machine, op Operating, p Phase) (*FixedPoint, bool) {
	a := newPoint(m.Mem, units.FromRatio(op.UncoreRatio, cpu.BusClock))
	ph := at(&p, effectiveCoreFreq(m.CPU, p.VPI, op.CoreRatio).GHzF())
	return &FixedPoint{a, ph}, p.BytesPerInstr != 0 && !a.saturated(&ph)
}

// Rises reports whether the utilisation implied at rho exceeds rho.
func (f *FixedPoint) Rises(rho float64) bool { return f.a.rises(&f.ph, rho) }

// Least returns T, the float the search finds: the least in
// (0, MaxU] at which Rises is false.
func (f *FixedPoint) Least() float64 {
	var w work
	return f.a.least(&f.ph, &w)
}

// MaxU is the top of the search's interval, mem.Config.MaxUtilization.
func (f *FixedPoint) MaxU() float64 { return f.a.maxU }
