package eargm

import (
	"testing"
	"testing/quick"

	"goear/internal/telemetry"
)

func testConfig() Config {
	return Config{BudgetW: 1300, MaxCapPstate: 8}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	c := testConfig().defaults()
	if c.IntervalSec != 5 {
		t.Errorf("defaults = %+v", c)
	}
	muts := []func(*Config){
		func(c *Config) { c.BudgetW = 0 },
		func(c *Config) { c.IntervalSec = -1 },
		func(c *Config) { c.MaxCapPstate = 0 },
	}
	for i, mut := range muts {
		c := testConfig().defaults()
		mut(&c)
		if err := c.validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("expected error for zero config")
	}
}

func TestRatchetDeepensWhileOverBudget(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	over := []float64{400, 400, 400, 400} // 1600 > 1300
	caps := []int{}
	for i := 0; i < 10; i++ {
		cap, err := m.Update(float64(i)*5, over)
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, cap)
	}
	// First over-budget interval imposes the min cap (1), then one
	// deeper per interval, saturating at MaxCapPstate.
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, 8, 8}
	for i := range want {
		if caps[i] != want[i] {
			t.Fatalf("caps = %v, want %v", caps, want)
		}
	}
}

func TestHysteresisRelease(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Drive the cap to 3.
	for i := 0; i < 3; i++ {
		if _, err := m.Update(float64(i), []float64{400, 400, 400, 400}); err != nil {
			t.Fatal(err)
		}
	}
	if m.cap != 3 {
		t.Fatalf("cap = %d, want 3", m.cap)
	}
	// Power in the dead band (between release mark and budget): hold.
	mid := []float64{310, 310, 310, 310} // 1240, release mark is 1196
	for i := 0; i < 5; i++ {
		if _, err := m.Update(10+float64(i), mid); err != nil {
			t.Fatal(err)
		}
	}
	if m.cap != 3 {
		t.Errorf("cap moved in dead band: %d", m.cap)
	}
	// Well below release mark: relax one step per settleIntervals.
	low := []float64{250, 250, 250, 250} // 1000
	steps := 0
	for i := 0; i < 12 && m.cap != 0; i++ {
		before := m.cap
		if _, err := m.Update(100+float64(i), low); err != nil {
			t.Fatal(err)
		}
		if m.cap != before {
			steps++
		}
	}
	if m.cap != 0 {
		t.Errorf("cap not fully released: %d", m.cap)
	}
	if steps != 3 {
		t.Errorf("release steps = %d, want 3 (3 -> 2 -> 1 -> released)", steps)
	}
}

func TestReleaseRequiresSettling(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(0, []float64{1400}); err != nil {
		t.Fatal(err)
	}
	if m.cap != 1 {
		t.Fatal("cap not imposed")
	}
	// One low interval is not enough (settleIntervals = 2).
	if _, err := m.Update(5, []float64{900}); err != nil {
		t.Fatal(err)
	}
	if m.cap != 1 {
		t.Errorf("cap released after a single low interval")
	}
	// An over-budget interval resets the settle counter.
	if _, err := m.Update(10, []float64{1400}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(15, []float64{900}); err != nil {
		t.Fatal(err)
	}
	if m.cap == 0 {
		t.Error("settle counter not reset by over-budget interval")
	}
}

func TestUpdateRejectsNegativePower(t *testing.T) {
	m, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(0, []float64{-1}); err == nil {
		t.Error("expected error for negative power")
	}
}

func TestStatsAndEvents(t *testing.T) {
	set := telemetry.NewSet()
	cfg := testConfig()
	cfg.Telemetry = set
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(5, []float64{1500}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(10, []float64{1000}); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Intervals != 2 || s.OverBudget != 1 || s.PeakW != 1500 {
		t.Errorf("stats = %+v", s)
	}
	if s.OverBudgetPct != 50 {
		t.Errorf("over-budget pct = %v", s.OverBudgetPct)
	}
	// The first interval deepened to the min cap; the second, in the
	// dead band, changed nothing and logged nothing.
	evs := set.Rec().Events()
	if len(evs) != 1 || evs[0].Str["action"] != "deepen" || evs[0].Num["cap_pstate"] != 1 || evs[0].TimeSec != 5 {
		t.Errorf("events = %+v", evs)
	}
}

func TestCapBoundsProperty(t *testing.T) {
	// Whatever power sequence arrives, the cap stays within
	// [0] ∪ [minCapPstate, MaxCapPstate].
	fn := func(seq []uint16) bool {
		m, err := New(testConfig())
		if err != nil {
			return false
		}
		for i, v := range seq {
			cap, err := m.Update(float64(i), []float64{float64(v)})
			if err != nil {
				return false
			}
			if cap != 0 && (cap < 1 || cap > 8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}
