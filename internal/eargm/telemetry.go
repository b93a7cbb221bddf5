package eargm

import (
	"goear/internal/telemetry"
)

// Metric names.
const (
	metricGMIntervals = "goear_eargm_intervals_total"
	metricGMDeepened  = "goear_eargm_cap_deepened_total"
	metricGMRelaxed   = "goear_eargm_cap_relaxed_total"
	metricGMCap       = "goear_eargm_cap_pstate"
	metricGMPower     = "goear_eargm_total_power_watts"

	metricGMCascadeUpdates = "goear_eargm_cascade_updates_total"
	metricGMIslandBudget   = "goear_eargm_island_budget_watts"
	metricGMIslandPower    = "goear_eargm_island_power_watts"
	metricGMIslandCap      = "goear_eargm_island_cap_pstate"
)

// Span kinds.
const (
	spanGMInterval = "eargm.interval"
	spanGMIsland   = "eargm.island"
)

// gmTel is a manager's pre-resolved instrument bundle; nil fields
// (telemetry absent) make every use a nil-receiver no-op.
type gmTel struct {
	intervals *telemetry.Counter
	deepened  *telemetry.Counter
	relaxed   *telemetry.Counter
	cap       *telemetry.Gauge
	power     *telemetry.Gauge
	rec       *telemetry.Recorder
}

func newGMTel(s *telemetry.Set) gmTel {
	r := s.Reg()
	return gmTel{
		intervals: r.Counter(metricGMIntervals, "control intervals evaluated"),
		deepened:  r.Counter(metricGMDeepened, "intervals that deepened the pstate cap"),
		relaxed:   r.Counter(metricGMRelaxed, "intervals that relaxed the pstate cap"),
		cap:       r.Gauge(metricGMCap, "current cluster pstate ceiling (0 = released)"),
		power:     r.Gauge(metricGMPower, "last observed total cluster DC power"),
		rec:       s.Rec(),
	}
}

// cascadeTel is a cascade's pre-resolved instrument bundle. Island
// labels are resolved once at construction (setup-time label
// resolution); nil fields make every use a no-op.
type cascadeTel struct {
	updates *telemetry.Counter
	budget  []*telemetry.Gauge // per island
	power   []*telemetry.Gauge
	cap     []*telemetry.Gauge
}

func newCascadeTel(s *telemetry.Set, islands []Island) cascadeTel {
	if s == nil {
		s = telemetry.Default()
	}
	r := s.Reg()
	t := cascadeTel{
		updates: r.Counter(metricGMCascadeUpdates, "cascaded control intervals evaluated"),
	}
	bv := r.GaugeVec(metricGMIslandBudget, "power budget apportioned to the island", "island")
	pv := r.GaugeVec(metricGMIslandPower, "last observed island DC power", "island")
	cv := r.GaugeVec(metricGMIslandCap, "island pstate ceiling (0 = released)", "island")
	for _, isl := range islands {
		t.budget = append(t.budget, bv.With(isl.Name))
		t.power = append(t.power, pv.With(isl.Name))
		t.cap = append(t.cap, cv.With(isl.Name))
	}
	return t
}

// island records one island's interval outcome.
func (t cascadeTel) island(i int, budgetW, drawW float64, capP int) {
	if t.budget == nil {
		return
	}
	t.budget[i].Set(budgetW)
	t.power[i].Set(drawW)
	t.cap[i].Set(float64(capP))
}

// transition logs one ratchet transition (a deepen or relax decision)
// to the event recorder, stamped with simulated time.
func (t gmTel) transition(now float64, action string, capP int, totalW float64) {
	if t.rec == nil {
		return
	}
	t.rec.Record(telemetry.Event{
		TimeSec: now,
		Kind:    "eargm.ratchet",
		Src:     "eargm",
		Str:     map[string]string{"action": action},
		Num:     map[string]float64{"cap_pstate": float64(capP), "total_power_w": totalW},
	})
}
