package mem

import (
	"math"
	"testing"
	"testing/quick"

	"goear/internal/units"
)

func TestDDR4SD530Valid(t *testing.T) {
	c := DDR4SD530()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.peakGBs(); math.Abs(got-230.4) > 1e-9 {
		t.Errorf("PeakGBs = %v, want 230.4 (12 x 19.2)", got)
	}
}

func TestValidateRejects(t *testing.T) {
	base := DDR4SD530()
	muts := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.ChannelGBs = -1 },
		func(c *Config) { c.IMCGBsPerGHz = 0 },
		func(c *Config) { c.IdleLatencyNs = -1 },
		func(c *Config) { c.UncoreLatencyNsGHz = -1 },
		func(c *Config) { c.MaxUtilization = 0 },
		func(c *Config) { c.MaxUtilization = 1 },
		func(c *Config) { c.QueueGain = -0.1 },
	}
	for i, mut := range muts {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

func TestCapabilityScalesWithUncore(t *testing.T) {
	c := DDR4SD530()
	// At 2.4 GHz the IMC reaches the DRAM peak.
	if got := c.CapabilityGBs(units.GHz(2.4)); math.Abs(got-230.4) > 1e-9 {
		t.Errorf("capability at 2.4GHz = %v, want 230.4", got)
	}
	// At 1.2 GHz it is IMC-limited to half.
	if got := c.CapabilityGBs(units.GHz(1.2)); math.Abs(got-115.2) > 1e-9 {
		t.Errorf("capability at 1.2GHz = %v, want 115.2", got)
	}
	// Above 2.4 GHz the DRAM peak caps it.
	if got := c.CapabilityGBs(units.GHz(3.0)); math.Abs(got-230.4) > 1e-9 {
		t.Errorf("capability at 3GHz = %v, want 230.4 (DRAM cap)", got)
	}
}

func TestCapabilityMonotonicProperty(t *testing.T) {
	c := DDR4SD530()
	fn := func(a, b uint8) bool {
		fa := units.FromRatio(uint64(a%25)+1, units.GHz(0.1))
		fb := units.FromRatio(uint64(b%25)+1, units.GHz(0.1))
		if fa.GHzF() > fb.GHzF() {
			fa, fb = fb, fa
		}
		return c.CapabilityGBs(fa) <= c.CapabilityGBs(fb)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencyGrowsAsUncoreDrops(t *testing.T) {
	c := DDR4SD530()
	hi := c.LatencyNs(units.GHz(2.4), 0)
	lo := c.LatencyNs(units.GHz(1.2), 0)
	if lo <= hi {
		t.Errorf("latency at 1.2GHz (%v) not above 2.4GHz (%v)", lo, hi)
	}
	// Unloaded latency at 2.4 GHz: 45 + 50/2.4 ≈ 65.8 ns.
	if hi < 60 || hi > 72 {
		t.Errorf("unloaded latency at 2.4GHz = %vns, want ~66ns", hi)
	}
}

func TestLatencyGrowsWithUtilization(t *testing.T) {
	c := DDR4SD530()
	prev := 0.0
	for _, rho := range []float64{0, 0.3, 0.6, 0.8, 0.9, 0.97} {
		l := c.LatencyNs(units.GHz(2.4), rho)
		if l < prev {
			t.Errorf("latency decreased at rho=%v: %v < %v", rho, l, prev)
		}
		prev = l
	}
	// Saturated latency must be finite and clamped at MaxUtilization.
	sat := c.LatencyNs(units.GHz(2.4), 5.0)
	if sat != c.LatencyNs(units.GHz(2.4), c.MaxUtilization) {
		t.Error("latency not clamped at MaxUtilization")
	}
}

func TestLatencyDegenerateInputs(t *testing.T) {
	c := DDR4SD530()
	if l := c.LatencyNs(units.Freq{}, 0); l <= 0 {
		t.Errorf("latency at 0 frequency must stay positive, got %v", l)
	}
	if l := c.LatencyNs(units.GHz(2.4), -1); l != c.LatencyNs(units.GHz(2.4), 0) {
		t.Error("negative rho not clamped to 0")
	}
}

func TestUtilization(t *testing.T) {
	c := DDR4SD530()
	if u := c.Utilization(115.2, units.GHz(2.4)); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
	if u := c.Utilization(1000, units.GHz(2.4)); u != c.MaxUtilization {
		t.Errorf("over-demand utilization = %v, want clamp %v", u, c.MaxUtilization)
	}
	if u := c.Utilization(-5, units.GHz(2.4)); u != 0 {
		t.Errorf("negative demand utilization = %v, want 0", u)
	}
}

func TestUtilizationBoundsProperty(t *testing.T) {
	c := DDR4SD530()
	fn := func(demand uint16, ratio uint8) bool {
		fu := units.FromRatio(uint64(ratio%25)+1, units.GHz(0.1))
		u := c.Utilization(float64(demand), fu)
		return u >= 0 && u <= c.MaxUtilization
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}
