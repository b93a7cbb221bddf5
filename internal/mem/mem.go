// Package mem models the node memory subsystem: DRAM channels behind the
// Integrated Memory Controller, whose achievable bandwidth and effective
// latency depend on the uncore (IMC) frequency.
//
// Two first-order effects matter for the paper's experiments:
//
//   - the bandwidth the IMC can move scales with its frequency until the
//     DRAM channels themselves saturate, and
//   - memory latency has an uncore-clocked component (mesh + LLC + IMC
//     queues) that grows as the uncore slows down, inflated further by
//     queueing delay as demanded bandwidth approaches the capability.
package mem

import (
	"fmt"
	"math"

	"goear/internal/units"
)

// Config describes one node's memory subsystem.
type Config struct {
	// Channels is the total number of populated DDR channels in the node.
	Channels int
	// ChannelGBs is the peak bandwidth of one channel in GB/s
	// (19.2 GB/s for DDR4-2400).
	ChannelGBs float64
	// IMCGBsPerGHz is the bandwidth capability the IMC provides per GHz
	// of uncore frequency, across the whole node.
	IMCGBsPerGHz float64
	// IdleLatencyNs is the uncore-frequency-independent part of DRAM
	// access latency (row access, channel transfer).
	IdleLatencyNs float64
	// UncoreLatencyNsGHz is the uncore-clocked latency component: it
	// contributes UncoreLatencyNsGHz / f_uncore(GHz) nanoseconds.
	UncoreLatencyNsGHz float64
	// QueueGain scales the queueing-delay inflation near saturation.
	QueueGain float64
	// MaxUtilization is the utilisation at which the subsystem is
	// considered saturated (achieved bandwidth never exceeds
	// MaxUtilization * capability).
	MaxUtilization float64
}

// DDR4SD530 returns the memory configuration of the paper's Lenovo
// ThinkSystem SD530 nodes: 12× DDR4-2400 dual-rank DIMMs across two
// sockets (6 channels each).
func DDR4SD530() Config {
	return Config{
		Channels:           12,
		ChannelGBs:         19.2,
		IMCGBsPerGHz:       96, // full DRAM bandwidth reached at 2.4 GHz uncore
		IdleLatencyNs:      45,
		UncoreLatencyNsGHz: 50,
		QueueGain:          0.8,
		MaxUtilization:     0.98,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0 || c.ChannelGBs <= 0:
		return fmt.Errorf("mem: channels (%d) and channel bandwidth (%g) must be positive",
			c.Channels, c.ChannelGBs)
	case c.IMCGBsPerGHz <= 0:
		return fmt.Errorf("mem: IMC bandwidth slope must be positive, got %g", c.IMCGBsPerGHz)
	case c.IdleLatencyNs < 0 || c.UncoreLatencyNsGHz < 0:
		return fmt.Errorf("mem: latencies must be non-negative")
	case c.MaxUtilization <= 0 || c.MaxUtilization >= 1:
		return fmt.Errorf("mem: max utilisation %g outside (0,1)", c.MaxUtilization)
	case c.QueueGain < 0:
		return fmt.Errorf("mem: queue gain must be non-negative")
	}
	return nil
}

// peakGBs is the DRAM-side peak bandwidth of the node.
func (c Config) peakGBs() float64 { return float64(c.Channels) * c.ChannelGBs }

// CapabilityGBs returns the bandwidth the memory subsystem can sustain at
// the given uncore frequency: the lesser of the DRAM peak and the IMC
// capability at that frequency.
func (c Config) CapabilityGBs(fu units.Freq) float64 {
	imc := c.IMCGBsPerGHz * fu.GHzF()
	return math.Min(c.peakGBs(), imc)
}

// Utilization returns demanded/capability clamped to [0, MaxUtilization].
func (c Config) Utilization(demandGBs float64, fu units.Freq) float64 {
	cap := c.CapabilityGBs(fu)
	if cap <= 0 {
		return c.MaxUtilization
	}
	u := demandGBs / cap
	if u < 0 {
		return 0
	}
	if u > c.MaxUtilization {
		return c.MaxUtilization
	}
	return u
}

// LatencyNs returns the effective DRAM access latency at uncore frequency
// fu under utilisation rho, clamped to [0, MaxUtilization]: the
// unqueued latency times the queueing factor.
func (c Config) LatencyNs(fu units.Freq, rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	if rho > c.MaxUtilization {
		rho = c.MaxUtilization
	}
	return c.UnqueuedLatencyNs(fu) * c.QueueFactor(rho)
}

// UnqueuedLatencyNs returns the DRAM access latency at uncore frequency
// fu with empty queues: the idle latency plus the uncore-clocked
// component.
func (c Config) UnqueuedLatencyNs(fu units.Freq) float64 {
	g := fu.GHzF()
	if g <= 0 {
		g = 1e-3
	}
	return c.IdleLatencyNs + c.UncoreLatencyNsGHz/g
}

// QueueFactor returns the latency inflation 1 + QueueGain·rho³/(1-rho)
// at a utilisation rho in [0, MaxUtilization], which it does not check.
func (c Config) QueueFactor(rho float64) float64 {
	return 1 + c.QueueGain*rho*rho*rho/(1-rho)
}
