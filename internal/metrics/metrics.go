// Package metrics computes the application signature EAR's policies
// consume: a set of performance and power metrics characterising the
// computational behaviour of the running loop, derived from hardware
// counters and the Node Manager energy meter over windows of at least
// ten seconds (the paper's signature cadence, bounded below by the 1 s
// resolution of the DC energy counter).
package metrics

import (
	"fmt"
	"math"
)

// MinWindowSeconds is the minimum signature window: EARL computes the
// loop signature "every 10 or more seconds".
const MinWindowSeconds = 10.0

// Sample is a snapshot of a node's cumulative counters, taken by EARL at
// iteration boundaries (MPI) or periodic ticks (non-MPI).
type Sample struct {
	// TimeSec is elapsed wall time since the run started.
	TimeSec float64
	// Instructions retired, all cores.
	Instructions float64
	// CoreCycles consumed, all cores (at the effective clock).
	CoreCycles float64
	// AVXInstructions retired (AVX512), all cores.
	AVXInstructions float64
	// DRAMBytes transferred.
	DRAMBytes float64
	// EnergyJ is the Node Manager accumulated DC energy (1 s quantised).
	EnergyJ float64
	// CoreFreqSeconds is the time integral of measured core frequency
	// (GHz·s); divided by time it gives the average frequency.
	CoreFreqSeconds float64
	// IMCFreqSeconds is the same integral for the uncore.
	IMCFreqSeconds float64
	// Iterations completed so far (when loop structure is known).
	Iterations int
}

// Signature is the derived per-window application signature.
type Signature struct {
	// TimeSec is the window duration; IterTimeSec the per-iteration
	// time when iteration counts are available (otherwise the window).
	TimeSec     float64
	IterTimeSec float64
	// DCPowerW is the average DC node power over the window.
	DCPowerW float64
	// CPI is cycles per instruction.
	CPI float64
	// TPI is main-memory transactions (cache lines) per instruction.
	TPI float64
	// GBs is DRAM bandwidth in GB/s.
	GBs float64
	// VPI is the AVX512 fraction of instructions.
	VPI float64
	// AvgCPUGHz and AvgIMCGHz are average measured frequencies.
	AvgCPUGHz float64
	AvgIMCGHz float64
	// Iterations covered by the window.
	Iterations int
}

// cacheLineBytes converts DRAM bytes to transactions.
const cacheLineBytes = 64

// Compute derives the signature of the window between two samples.
func Compute(prev, cur Sample) (Signature, error) {
	dt := cur.TimeSec - prev.TimeSec
	if dt <= 0 {
		return Signature{}, fmt.Errorf("metrics: non-positive window %g s", dt)
	}
	di := cur.Instructions - prev.Instructions
	if di <= 0 {
		return Signature{}, fmt.Errorf("metrics: no instructions retired in window")
	}
	dc := cur.CoreCycles - prev.CoreCycles
	dbytes := cur.DRAMBytes - prev.DRAMBytes
	dEnergy := cur.EnergyJ - prev.EnergyJ
	davx := cur.AVXInstructions - prev.AVXInstructions
	if dc < 0 || dbytes < 0 || dEnergy < 0 || davx < 0 {
		return Signature{}, fmt.Errorf("metrics: counters went backwards")
	}
	s := Signature{
		TimeSec:     dt,
		IterTimeSec: dt,
		DCPowerW:    dEnergy / dt,
		CPI:         dc / di,
		TPI:         dbytes / cacheLineBytes / di,
		GBs:         dbytes / dt / 1e9,
		VPI:         davx / di,
		AvgCPUGHz:   (cur.CoreFreqSeconds - prev.CoreFreqSeconds) / dt,
		AvgIMCGHz:   (cur.IMCFreqSeconds - prev.IMCFreqSeconds) / dt,
		Iterations:  cur.Iterations - prev.Iterations,
	}
	if s.Iterations > 0 {
		s.IterTimeSec = dt / float64(s.Iterations)
	}
	return s, nil
}

// Changed reports whether signature b differs from a by more than the
// given relative threshold on the metrics the paper uses for stability:
// CPI and GB/s (§V-B item 6). GB/s below 1 GB/s is ignored to avoid
// noise-triggered re-evaluation on compute-only phases.
func Changed(a, b Signature, threshold float64) bool {
	if a.CPI > 0 && relDiff(a.CPI, b.CPI) > threshold {
		return true
	}
	if a.GBs > 1 && relDiff(a.GBs, b.GBs) > threshold {
		return true
	}
	return false
}

func relDiff(ref, now float64) float64 {
	if ref == 0 {
		return 0
	}
	return math.Abs(now-ref) / math.Abs(ref)
}

// Valid reports whether the signature has physically meaningful values.
func (s Signature) Valid() bool {
	return s.TimeSec > 0 && s.CPI > 0 && s.DCPowerW >= 0 &&
		s.TPI >= 0 && s.GBs >= 0 && s.VPI >= 0 && s.VPI <= 1 &&
		!math.IsNaN(s.CPI) && !math.IsInf(s.CPI, 0)
}
