// Package eargm implements EAR's global manager: the cluster-level
// energy-control service (the "energy control" pillar of the EAR
// framework alongside accounting and optimisation). It watches total
// cluster DC power at a fixed period and enforces a site power budget
// by raising or releasing a CPU pstate ceiling that the node daemons
// apply under whatever the per-job energy policies request.
//
// The controller is a bounded ratchet with hysteresis: each interval
// over budget deepens the cap one pstate (down to a configured floor);
// the cap is released one step at a time only after the cluster has
// stayed below the release watermark, preventing oscillation around the
// budget.
package eargm

import (
	"fmt"
	"math"

	"goear/internal/telemetry"
)

// Config parameterises the manager.
type Config struct {
	// BudgetW is the cluster DC power budget in watts.
	BudgetW float64
	// IntervalSec is the control period (default 5 s; EARGM's real
	// period is seconds to minutes).
	IntervalSec float64
	// MaxCapPstate is the deepest ceiling the manager may impose.
	MaxCapPstate int
	// Telemetry, when set, exposes the manager's activity as
	// goear_eargm_* instruments and logs ratchet transitions to that
	// set's event recorder; nil makes every instrument a no-op.
	Telemetry *telemetry.Set
}

// The fixed ratchet constants.
const (
	// releaseMark is the fraction of the budget below which the cap is
	// relaxed one step. Hysteresis between BudgetW and
	// releaseMark·BudgetW keeps the controller from oscillating.
	releaseMark = 0.92
	// minCapPstate is the shallowest non-released ceiling: the nominal
	// frequency, so the first action is disabling turbo-level requests.
	minCapPstate = 1
	// settleIntervals is how many consecutive below-release intervals
	// are required before relaxing.
	settleIntervals = 2
)

// defaults fills unset fields.
func (c Config) defaults() Config {
	if c.IntervalSec == 0 {
		c.IntervalSec = 5
	}
	return c
}

// validate reports whether the configuration is usable.
func (c Config) validate() error {
	switch {
	case !usable(c.BudgetW):
		return fmt.Errorf("eargm: budget must be positive and finite, got %g", c.BudgetW)
	case !usable(c.IntervalSec):
		return fmt.Errorf("eargm: interval must be positive and finite, got %g", c.IntervalSec)
	case c.MaxCapPstate < minCapPstate:
		return fmt.Errorf("eargm: max cap pstate %d below min %d", c.MaxCapPstate, minCapPstate)
	}
	return nil
}

// usable reports whether x is a budget or a period a controller can
// run on: positive and finite. NaN is neither, and passes x <= 0.
func usable(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Manager is the global power manager. It implements sim.PowerManager.
type Manager struct {
	cfg Config
	tel gmTel

	cap        int // 0 = released
	belowCount int
	peakW      float64
	overs      int
	intervals  int
}

// New builds a manager.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg, tel: newGMTel(cfg.Telemetry)}, nil
}

// Interval implements sim.PowerManager.
func (m *Manager) Interval() float64 { return m.cfg.IntervalSec }

// Update implements sim.PowerManager: ratchet logic over the summed
// node powers.
func (m *Manager) Update(now float64, nodePowerW []float64) (int, error) {
	total := 0.0
	for _, p := range nodePowerW {
		if p < 0 {
			return 0, fmt.Errorf("eargm: negative node power %g", p)
		}
		total += p
	}
	m.intervals++
	if total > m.peakW {
		m.peakW = total
	}
	deepened, relaxed := false, false
	switch {
	case total > m.cfg.BudgetW:
		m.overs++
		m.belowCount = 0
		switch {
		case m.cap == 0:
			m.cap = minCapPstate
			deepened = true
		case m.cap < m.cfg.MaxCapPstate:
			m.cap++
			deepened = true
		}
	case total < releaseMark*m.cfg.BudgetW && m.cap != 0:
		m.belowCount++
		if m.belowCount >= settleIntervals {
			m.belowCount = 0
			if m.cap > minCapPstate {
				m.cap--
			} else {
				m.cap = 0
			}
			relaxed = true
		}
	default:
		m.belowCount = 0
	}

	m.tel.intervals.Inc()
	m.tel.cap.Set(float64(m.cap))
	m.tel.power.Set(total)
	switch {
	case deepened:
		m.tel.deepened.Inc()
		m.tel.transition(now, "deepen", m.cap, total)
	case relaxed:
		m.tel.relaxed.Inc()
		m.tel.transition(now, "relax", m.cap, total)
	}
	return m.cap, nil
}

// setBudget re-targets the manager to a new power budget, keeping the
// ratchet state (cap, settle count) intact. A cascaded deployment
// re-apportions island budgets every interval as cluster draw shifts;
// resetting the ratchet each time would defeat the hysteresis.
func (m *Manager) setBudget(w float64) error {
	if !usable(w) {
		return fmt.Errorf("eargm: budget must be positive and finite, got %g", w)
	}
	m.cfg.BudgetW = w
	return nil
}

// Stats summarises the run for reporting.
type Stats struct {
	Intervals     int
	OverBudget    int
	PeakW         float64
	FinalCap      int
	OverBudgetPct float64
}

// Stats returns run statistics.
func (m *Manager) Stats() Stats {
	s := Stats{
		Intervals:  m.intervals,
		OverBudget: m.overs,
		PeakW:      m.peakW,
		FinalCap:   m.cap,
	}
	if m.intervals > 0 {
		s.OverBudgetPct = 100 * float64(m.overs) / float64(m.intervals)
	}
	return s
}
