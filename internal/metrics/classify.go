package metrics

import "fmt"

// PhaseClass is EAR's coarse application-phase taxonomy, derived from
// the signature alone. The policies use it to pick their strategy: the
// prediction-driven search applies to compute phases, while busy-wait
// phases (an accelerator-offload host spinning on completion) are
// handled by direct frequency reduction.
type PhaseClass int

// Phase classes.
const (
	// cpuComp: compute-dominated, little main-memory traffic relative
	// to the instruction rate.
	cpuComp PhaseClass = iota
	// MemBound: main-memory dominated (high CPI together with high
	// bandwidth).
	MemBound
	// Mixed: meaningful core and memory components.
	mixed
	// BusyWaiting: negligible memory traffic and low CPI — a spinning
	// host core making no application progress per cycle.
	BusyWaiting
)

// String names the class.
func (c PhaseClass) String() string {
	switch c {
	case cpuComp:
		return "CPU_COMP"
	case MemBound:
		return "MEM_BOUND"
	case mixed:
		return "MIXED"
	case BusyWaiting:
		return "BUSY_WAITING"
	default:
		return fmt.Sprintf("PhaseClass(%d)", int(c))
	}
}

// Classification thresholds (fractions and absolute GB/s).
const (
	busyWaitMaxGBs = 0.5
	busyWaitMaxCPI = 1.2
	memBoundMinCPI = 1.5
	memBoundMinGBs = 80
	mixedMinGBs    = 30
)

// Classify derives the phase class from a signature.
func Classify(sig Signature) PhaseClass {
	switch {
	case sig.GBs < busyWaitMaxGBs && sig.CPI < busyWaitMaxCPI && sig.VPI < 0.01:
		return BusyWaiting
	case sig.CPI >= memBoundMinCPI && sig.GBs >= memBoundMinGBs:
		return MemBound
	case sig.GBs >= mixedMinGBs:
		return mixed
	default:
		return cpuComp
	}
}
