package eargm

import (
	"testing"
	"testing/quick"

	"goear/internal/telemetry"
)

// TestIntervalAccessor covers the sim.PowerManager wiring: the
// coordinated-run loop paces itself entirely off this accessor.
func TestIntervalAccessor(t *testing.T) {
	m, err := New(Config{BudgetW: 1000, MaxCapPstate: 5, IntervalSec: 7.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Interval(); got != 7.5 {
		t.Errorf("Interval() = %g, want 7.5", got)
	}
	def, err := New(Config{BudgetW: 1000, MaxCapPstate: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := def.Interval(); got != 5 {
		t.Errorf("default Interval() = %g, want 5", got)
	}
}

// TestClosedLoopConvergence runs the manager against a synthetic
// cluster whose power responds to the cap the way capped nodes do
// (deeper pstate ceiling, lower draw). The ratchet must pull the
// cluster under budget and then hold inside the hysteresis band
// without oscillating — the paper's requirement that the global
// manager be stable at the site budget.
func TestClosedLoopConvergence(t *testing.T) {
	const (
		budget   = 1000.0
		nodeBase = 280.0 // per-node uncapped draw, 4 nodes = 1120 W > budget
		nodes    = 4
	)
	m, err := New(Config{BudgetW: budget, MaxCapPstate: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Each cap pstate sheds 6% of node power: cap 2 → 1120·0.88 ≈ 986 W.
	powerAt := func(cap int) []float64 {
		p := nodeBase * (1 - 0.06*float64(cap))
		out := make([]float64, nodes)
		for i := range out {
			out[i] = p
		}
		return out
	}
	cap := 0
	var caps []int
	for i := 0; i < 40; i++ {
		cap, err = m.Update(float64(i)*5, powerAt(cap))
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, cap)
	}
	// Converged: the tail must be constant (no oscillation) ...
	final := caps[len(caps)-1]
	for _, c := range caps[len(caps)-10:] {
		if c != final {
			t.Fatalf("cap still moving in steady state: %v", caps[len(caps)-10:])
		}
	}
	if final == 0 {
		t.Fatal("cap fully released although uncapped power exceeds the budget")
	}
	// ... with the converged power inside the hysteresis band
	// [release mark, budget].
	steady := 0.0
	for _, p := range powerAt(final) {
		steady += p
	}
	if steady > budget {
		t.Errorf("steady-state power %.0fW above budget %.0fW", steady, budget)
	}
	if steady < 0.92*budget {
		t.Errorf("steady-state power %.0fW below the release mark; controller over-throttles", steady)
	}
	st := m.Stats()
	if st.PeakW != nodes*nodeBase {
		t.Errorf("peak = %.0fW, want the uncapped draw %.0fW", st.PeakW, nodes*nodeBase)
	}
}

// TestEventTrace pins the decision log: deepen and relax transitions
// must be visible with their timestamps and totals.
func TestEventTrace(t *testing.T) {
	set := telemetry.NewSet()
	m, err := New(Config{BudgetW: 1000, MaxCapPstate: 5, Telemetry: set})
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		now     float64
		power   float64
		deepen  bool
		relax   bool
		wantCap int
	}{
		{5, 1200, true, false, 1},  // over budget: impose the min cap
		{10, 1100, true, false, 2}, // still over: deepen
		{15, 950, false, false, 2}, // dead band (920..1000): hold
		{20, 900, false, false, 2}, // below release mark: settling
		{25, 900, false, true, 1},  // second low interval: relax
		{30, 900, false, false, 1}, // settling again
		{35, 900, false, true, 0},  // and fully release
	}
	for _, s := range steps {
		cap, err := m.Update(s.now, []float64{s.power})
		if err != nil {
			t.Fatal(err)
		}
		if cap != s.wantCap {
			t.Fatalf("t=%g: cap = %d, want %d", s.now, cap, s.wantCap)
		}
	}
	// Every transition, and only a transition, is logged.
	evs := set.Rec().Events()
	i := 0
	for _, s := range steps {
		if !s.deepen && !s.relax {
			continue
		}
		if i >= len(evs) {
			t.Fatalf("only %d events, missing the transition at t=%g", len(evs), s.now)
		}
		ev := evs[i]
		i++
		if ev.TimeSec != s.now || ev.Num["total_power_w"] != s.power {
			t.Errorf("event %+v, want t=%g total=%g", ev, s.now, s.power)
		}
		if want := map[bool]string{true: "deepen", false: "relax"}[s.deepen]; ev.Str["action"] != want {
			t.Errorf("event at t=%g is a %q, want %q", ev.TimeSec, ev.Str["action"], want)
		}
		if ev.Num["cap_pstate"] != float64(s.wantCap) {
			t.Errorf("event at t=%g caps at %v, want %d", ev.TimeSec, ev.Num["cap_pstate"], s.wantCap)
		}
	}
	if i != len(evs) {
		t.Errorf("%d events for %d transitions: %+v", len(evs), i, evs)
	}
}

// TestNoNodesIsUnderBudget covers the empty-cluster edge: zero nodes
// draw zero watts, the cap stays released.
func TestNoNodesIsUnderBudget(t *testing.T) {
	m, err := New(Config{BudgetW: 1000, MaxCapPstate: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cap, err := m.Update(float64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if cap != 0 {
			t.Errorf("empty cluster got capped to %d", cap)
		}
	}
	if st := m.Stats(); st.OverBudget != 0 || st.PeakW != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCapStepDiscipline: whatever the power sequence, the cap moves
// at most one level per interval (release may drop from minCapPstate
// to 0, which is also one level).
func TestCapStepDiscipline(t *testing.T) {
	fn := func(seq []uint16) bool {
		m, err := New(Config{BudgetW: 500, MaxCapPstate: 6})
		if err != nil {
			return false
		}
		prev := 0
		for i, v := range seq {
			cap, err := m.Update(float64(i), []float64{float64(v)})
			if err != nil {
				return false
			}
			d := cap - prev
			if d > 1 || d < -1 {
				// One exception: imposing the first cap jumps 0 -> minCapPstate.
				if !(prev == 0 && cap == minCapPstate) {
					return false
				}
			}
			prev = cap
		}
		return true
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}
