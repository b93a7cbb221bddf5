package uncore

import (
	"testing"
	"testing/quick"

	"goear/internal/cpu"
	"goear/internal/msr"
)

func newSocket(t *testing.T) *cpu.Socket {
	t.Helper()
	s, err := cpu.NewSocket(cpu.XeonGold6148(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewControllerErrors(t *testing.T) {
	var c Controller
	if err := c.Init(nil, AlwaysMax(24)); err == nil {
		t.Error("expected error for nil MSR file")
	}
	s := newSocket(t)
	if err := c.Init(s.MSR, nil); err == nil {
		t.Error("expected error for nil curve")
	}
	if err := c.Init(s.MSR, AlwaysMax(24)); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(-0.1, 24); err == nil {
		t.Error("expected error for negative dt")
	}
}

func TestRampUpToMax(t *testing.T) {
	s := newSocket(t)
	var c Controller
	if err := c.Init(s.MSR, AlwaysMax(24)); err != nil {
		t.Fatal(err)
	}
	// Boot value is the hardware minimum (12). After 12 ticks the
	// controller must reach 24, one step per 10 ms.
	if cur, _ := s.CurrentUncoreRatio(); cur != 12 {
		t.Fatalf("boot ratio = %d, want 12", cur)
	}
	if err := c.Advance(0.05, 24); err != nil { // 5 ticks
		t.Fatal(err)
	}
	if cur, _ := s.CurrentUncoreRatio(); cur != 17 {
		t.Errorf("after 50ms ratio = %d, want 17 (one step per tick)", cur)
	}
	if err := c.Advance(0.2, 24); err != nil {
		t.Fatal(err)
	}
	if cur, _ := s.CurrentUncoreRatio(); cur != 24 {
		t.Errorf("steady ratio = %d, want 24", cur)
	}
	// Stays there.
	if err := c.Advance(1.0, 24); err != nil {
		t.Fatal(err)
	}
	if cur, _ := s.CurrentUncoreRatio(); cur != 24 {
		t.Errorf("ratio drifted to %d", cur)
	}
}

func TestSubTickAccumulation(t *testing.T) {
	s := newSocket(t)
	var c Controller
	if err := c.Init(s.MSR, AlwaysMax(24)); err != nil {
		t.Fatal(err)
	}
	// 4 advances of 3ms = 12ms: exactly one tick.
	for i := 0; i < 4; i++ {
		if err := c.Advance(0.003, 24); err != nil {
			t.Fatal(err)
		}
	}
	if cur, _ := s.CurrentUncoreRatio(); cur != 13 {
		t.Errorf("after 12ms ratio = %d, want 13", cur)
	}
}

func TestRespectsSoftwareLimits(t *testing.T) {
	s := newSocket(t)
	var c Controller
	if err := c.Init(s.MSR, AlwaysMax(24)); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(0.5, 24); err != nil { // settle at 24
		t.Fatal(err)
	}
	// EAR narrows the window: max 18.
	if err := s.SetUncoreLimits(12, 18); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(0.02, 24); err != nil { // one tick is enough
		t.Fatal(err)
	}
	cur, _ := s.CurrentUncoreRatio()
	if cur > 18 {
		t.Errorf("controller above software max: %d", cur)
	}
	// Pinning min=max forces the exact ratio.
	if err := s.SetUncoreLimits(15, 15); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(0.05, 24); err != nil {
		t.Fatal(err)
	}
	if cur, _ := s.CurrentUncoreRatio(); cur != 15 {
		t.Errorf("pinned ratio = %d, want 15", cur)
	}
}

func TestNeverLeavesLimitsProperty(t *testing.T) {
	s := newSocket(t)
	var c Controller
	if err := c.Init(s.MSR, FollowCore(0)); err != nil {
		t.Fatal(err)
	}
	fn := func(minR, maxR, core uint8, epb uint8) bool {
		lo, hi := uint64(minR%13)+12, uint64(maxR%13)+12
		if lo > hi {
			lo, hi = hi, lo
		}
		if err := s.SetUncoreLimits(lo, hi); err != nil {
			return false
		}
		if err := s.MSR.Write(msr.IA32EnergyPerfBias, uint64(epb%16)); err != nil {
			return false
		}
		if err := c.Advance(0.1, uint64(core%20)+10); err != nil {
			return false
		}
		cur, err := s.CurrentUncoreRatio()
		if err != nil {
			return false
		}
		return cur >= lo && cur <= hi
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestFollowCoreCurve(t *testing.T) {
	if FollowCore(0)(22) != 22 {
		t.Error("FollowCore(0) must track the core ratio")
	}
	if FollowCore(-2)(22) != 20 {
		t.Error("FollowCore(-2)(22) != 20")
	}
	if FollowCore(-30)(22) != 0 {
		t.Error("FollowCore must clamp below zero")
	}
	if FollowCore(3)(22) != 25 {
		t.Error("FollowCore(+3)(22) != 25")
	}
}

func TestStepCurve(t *testing.T) {
	cv := Step(24, 24, 15)
	if cv(26) != 24 || cv(24) != 24 {
		t.Error("Step above threshold must return hi")
	}
	if cv(23) != 15 {
		t.Error("Step below threshold must return lo")
	}
}

func TestFixedCurve(t *testing.T) {
	if Fixed(20)(5) != 20 || Fixed(20)(30) != 20 {
		t.Error("Fixed curve must ignore core ratio")
	}
}

func TestEPBBias(t *testing.T) {
	// Powersave EPB ends one step below the curve target; performance
	// EPB one above (within limits).
	s := newSocket(t)
	var c Controller
	if err := c.Init(s.MSR, Fixed(20)); err != nil {
		t.Fatal(err)
	}
	if err := s.MSR.Write(msr.IA32EnergyPerfBias, 15); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(0.5, 24); err != nil {
		t.Fatal(err)
	}
	if cur, _ := s.CurrentUncoreRatio(); cur != 19 {
		t.Errorf("powersave EPB: ratio = %d, want 19", cur)
	}
	if err := s.MSR.Write(msr.IA32EnergyPerfBias, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(0.5, 24); err != nil {
		t.Fatal(err)
	}
	if cur, _ := s.CurrentUncoreRatio(); cur != 21 {
		t.Errorf("performance EPB: ratio = %d, want 21", cur)
	}
}

func TestCurveSwitchOnPhaseChange(t *testing.T) {
	s := newSocket(t)
	var c Controller
	if err := c.Init(s.MSR, AlwaysMax(24)); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(0.5, 24); err != nil {
		t.Fatal(err)
	}
	// A node renewed for a run of another workload re-attaches its
	// controller with that workload's curve; the operating ratio ramps
	// from where the socket is.
	if err := c.Init(s.MSR, Fixed(14)); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(0.5, 24); err != nil {
		t.Fatal(err)
	}
	if cur, _ := s.CurrentUncoreRatio(); cur != 14 {
		t.Errorf("after phase change ratio = %d, want 14", cur)
	}
}
