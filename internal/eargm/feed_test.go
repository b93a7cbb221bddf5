package eargm

import (
	"math"
	"testing"

	"goear/internal/telemetry"
)

// respondingSource models a cluster whose draw responds to the cap the
// manager imposed on the previous interval — the feedback shape of the
// real eardbd → eargm loop.
type respondingSource struct {
	m        *Manager
	nodes    int
	baseW    float64
	shedFrac float64
}

func (s *respondingSource) NodePowers() []float64 {
	p := s.baseW * (1 - s.shedFrac*float64(s.m.cap))
	out := make([]float64, s.nodes)
	for i := range out {
		out[i] = p
	}
	return out
}

func TestDriveConvergesFromSource(t *testing.T) {
	set := telemetry.NewSet()
	m, err := New(Config{BudgetW: 1000, MaxCapPstate: 8, Telemetry: set})
	if err != nil {
		t.Fatal(err)
	}
	src := &respondingSource{m: m, nodes: 4, baseW: 280, shedFrac: 0.06}
	caps, err := Drive(m, src, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 40 {
		t.Fatalf("trace length = %d, want 40", len(caps))
	}
	final := caps[len(caps)-1]
	if final == 0 {
		t.Fatal("cap released although uncapped draw exceeds the budget")
	}
	for _, c := range caps[len(caps)-10:] {
		if c != final {
			t.Fatalf("cap still oscillating: %v", caps[len(caps)-10:])
		}
	}
	// Drive paced by the manager interval: every ratchet transition is
	// stamped with a whole number of intervals, the first (the cap the
	// over-budget cluster forces at once) with t=0.
	evs := set.Rec().Events()
	if len(evs) == 0 || evs[0].TimeSec != 0 {
		t.Fatalf("events = %+v, want the first transition at t=0", evs)
	}
	for _, ev := range evs {
		if k := ev.TimeSec / m.Interval(); k != math.Trunc(k) || k >= 40 {
			t.Fatalf("transition at t=%g, not one of 40 interval boundaries", ev.TimeSec)
		}
	}
}

func TestDriveNegativeSteps(t *testing.T) {
	m, err := New(Config{BudgetW: 1000, MaxCapPstate: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drive(m, &respondingSource{m: m}, 0, -1); err == nil {
		t.Error("negative steps accepted")
	}
}

func TestDrivePropagatesSourceErrors(t *testing.T) {
	m, err := New(Config{BudgetW: 1000, MaxCapPstate: 5})
	if err != nil {
		t.Fatal(err)
	}
	bad := badSource{}
	caps, err := Drive(m, bad, 0, 5)
	if err == nil {
		t.Fatal("negative node power accepted")
	}
	if len(caps) != 0 {
		t.Errorf("trace after failed first step = %v", caps)
	}
}

type badSource struct{}

func (badSource) NodePowers() []float64 { return []float64{-1} }
