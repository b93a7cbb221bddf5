package cpu

import (
	"testing"
	"testing/quick"

	"goear/internal/msr"
	"goear/internal/units"
)

func TestModelsValid(t *testing.T) {
	for _, m := range []Model{XeonGold6148(), XeonGold6142M(), XeonGold6252()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	base := XeonGold6148()
	mutations := []func(*Model){
		func(m *Model) { m.Sockets = 0 },
		func(m *Model) { m.CoresPerSocket = -1 },
		func(m *Model) { m.MinRatio = 0 },
		func(m *Model) { m.MinRatio = m.NominalRatio + 1 },
		func(m *Model) { m.TurboRatio = m.NominalRatio - 1 },
		func(m *Model) { m.AVX512Ratio = m.NominalRatio + 1 },
		func(m *Model) { m.UncoreMinRatio = 0 },
		func(m *Model) { m.UncoreMinRatio = m.UncoreMaxRatio + 1 },
	}
	for i, mut := range mutations {
		m := base
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestPstateTable6148(t *testing.T) {
	m := XeonGold6148()
	// Pstate 1 is nominal 2.4 GHz, pstate 3 is 2.2 GHz (the paper's
	// AVX512 example), pstate 0 advertises nominal+1 step.
	cases := []struct {
		p    int
		want units.Freq
	}{
		{0, units.GHz(2.5)},
		{1, units.GHz(2.4)},
		{2, units.GHz(2.3)},
		{3, units.GHz(2.2)},
	}
	for _, c := range cases {
		f, err := m.PstateFreq(c.p)
		if err != nil {
			t.Fatalf("PstateFreq(%d): %v", c.p, err)
		}
		if f != c.want {
			t.Errorf("PstateFreq(%d) = %v, want %v", c.p, f, c.want)
		}
	}
	if n := m.PstateCount(); n != 16 {
		t.Errorf("PstateCount = %d, want 16 (turbo + 2.4..1.0)", n)
	}
	last, err := m.PstateFreq(m.PstateCount() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if last != units.GHz(1.0) {
		t.Errorf("lowest pstate = %v, want 1GHz", last)
	}
}

func TestPstateBounds(t *testing.T) {
	m := XeonGold6148()
	if _, err := m.PstateFreq(-1); err == nil {
		t.Error("expected error for pstate -1")
	}
	if _, err := m.PstateFreq(m.PstateCount()); err == nil {
		t.Error("expected error for pstate beyond table")
	}
	if _, err := m.PstateRatio(-1); err == nil {
		t.Error("expected error for ratio of pstate -1")
	}
}

func TestPstateRatioRoundTrip(t *testing.T) {
	m := XeonGold6148()
	for p := 1; p < m.PstateCount(); p++ {
		r, err := m.PstateRatio(p)
		if err != nil {
			t.Fatal(err)
		}
		back, err := m.RatioPstate(r)
		if err != nil {
			t.Fatal(err)
		}
		if back != p {
			t.Errorf("pstate %d -> ratio %d -> pstate %d", p, r, back)
		}
	}
	// Any ratio above nominal maps to turbo pstate 0.
	if p, err := m.RatioPstate(m.TurboRatio); err != nil || p != 0 {
		t.Errorf("RatioPstate(turbo) = %d, %v", p, err)
	}
	if _, err := m.RatioPstate(m.MinRatio - 1); err == nil {
		t.Error("expected error below min ratio")
	}
}

func TestPstatesMonotonicProperty(t *testing.T) {
	// The pstate table must be strictly decreasing in frequency.
	for _, m := range []Model{XeonGold6148(), XeonGold6142M(), XeonGold6252()} {
		ps := m.Pstates()
		for i := 1; i < len(ps); i++ {
			if ps[i].GHzF() >= ps[i-1].GHzF() {
				t.Errorf("%s: pstate %d (%v) not below pstate %d (%v)",
					m.Name, i, ps[i], i-1, ps[i-1])
			}
		}
	}
}

func TestEffectiveRatio(t *testing.T) {
	m := XeonGold6148()
	cases := []struct {
		req  uint64
		avx  bool
		want uint64
	}{
		{24, false, 24},
		{24, true, 22},  // AVX512 licence caps nominal to 2.2 GHz
		{22, true, 22},  // at the licence: unchanged
		{20, true, 20},  // below licence: unchanged
		{99, false, 26}, // turbo clamp
		{1, false, 10},  // min clamp
		{26, true, 22},  // turbo + AVX512 still capped by licence
	}
	for _, c := range cases {
		if got := m.EffectiveRatio(c.req, c.avx); got != c.want {
			t.Errorf("EffectiveRatio(%d,%v) = %d, want %d", c.req, c.avx, got, c.want)
		}
	}
}

func TestEffectiveRatioInvariantProperty(t *testing.T) {
	m := XeonGold6148()
	fn := func(req uint8, avx bool) bool {
		r := m.EffectiveRatio(uint64(req), avx)
		if r < m.MinRatio || r > m.TurboRatio {
			return false
		}
		if avx && r > m.AVX512Ratio {
			return false
		}
		return true
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestSocketDVFSThroughMSR(t *testing.T) {
	s, err := NewSocket(XeonGold6148(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RequestRatio(22); err != nil {
		t.Fatal(err)
	}
	r, err := s.RequestedRatio()
	if err != nil {
		t.Fatal(err)
	}
	if r != 22 {
		t.Errorf("RequestedRatio = %d, want 22", r)
	}
	// Direct MSR view must agree.
	v, err := s.MSR.Read(msr.IA32PerfCtl)
	if err != nil {
		t.Fatal(err)
	}
	if msr.DecodePerfCtl(v) != 22 {
		t.Errorf("MSR view = %d, want 22", msr.DecodePerfCtl(v))
	}
}

func TestSocketRequestRatioBounds(t *testing.T) {
	s, err := NewSocket(XeonGold6148(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RequestRatio(9); err == nil {
		t.Error("expected error below min ratio")
	}
	if err := s.RequestRatio(27); err == nil {
		t.Error("expected error above turbo ratio")
	}
}

func TestSocketUncoreLimits(t *testing.T) {
	s, err := NewSocket(XeonGold6148(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Boot default is the full hardware range.
	u, err := s.UncoreLimits()
	if err != nil {
		t.Fatal(err)
	}
	if u.MinRatio != 12 || u.MaxRatio != 24 {
		t.Errorf("boot limits = %+v", u)
	}
	// Narrow the window.
	if err := s.SetUncoreLimits(18, 18); err != nil {
		t.Fatal(err)
	}
	u, _ = s.UncoreLimits()
	if u.MinRatio != 18 || u.MaxRatio != 18 {
		t.Errorf("pinned limits = %+v", u)
	}
	// Out-of-range values clamp to hardware capability.
	if err := s.SetUncoreLimits(1, 99); err != nil {
		t.Fatal(err)
	}
	u, _ = s.UncoreLimits()
	if u.MinRatio != 12 || u.MaxRatio != 24 {
		t.Errorf("clamped limits = %+v", u)
	}
	// Inverted range rejected.
	if err := s.SetUncoreLimits(20, 15); err == nil {
		t.Error("expected error for min > max")
	}
}

func TestSocketUncoreLimitClampProperty(t *testing.T) {
	s, err := NewSocket(XeonGold6148(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(minR, maxR uint8) bool {
		lo, hi := uint64(minR%30), uint64(maxR%30)
		if lo > hi {
			lo, hi = hi, lo
		}
		if err := s.SetUncoreLimits(lo, hi); err != nil {
			return false
		}
		u, err := s.UncoreLimits()
		if err != nil {
			return false
		}
		return u.MinRatio >= s.Model.UncoreMinRatio &&
			u.MaxRatio <= s.Model.UncoreMaxRatio &&
			u.MinRatio <= u.MaxRatio
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestNewSocketRejectsInvalidModel(t *testing.T) {
	m := XeonGold6148()
	m.Sockets = 0
	if _, err := NewSocket(m, 0); err == nil {
		t.Error("expected error for invalid model")
	}
}
