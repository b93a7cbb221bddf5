// Package msr emulates the Intel Model Specific Registers that EAR uses
// to observe and steer a Skylake-SP socket. The register addresses and
// bit layouts match the Intel SDM so that the policy and actuation code
// in this repository is written exactly as it would be against /dev/msr.
//
// The package distinguishes two roles:
//
//   - software (EARL, the policies) reads and writes registers through
//     Read and Write, subject to the same writability rules as real
//     hardware (performance counters and energy counters are read-only);
//   - the simulated hardware updates counters through the *Hw methods,
//     which bypass the writability check.
package msr

import (
	"fmt"
	"sync/atomic"
)

// Architectural and model-specific register addresses (Intel SDM vol. 4).
const (
	IA32MPerf           uint32 = 0xE7  // TSC-rate reference cycles while unhalted
	IA32APerf           uint32 = 0xE8  // actual cycles while unhalted
	IA32PerfStatus      uint32 = 0x198 // current core ratio in bits 15:8
	IA32PerfCtl         uint32 = 0x199 // requested core ratio in bits 15:8
	IA32EnergyPerfBias  uint32 = 0x1B0 // EPB hint, 0 (perf) .. 15 (powersave)
	ia32FixedCtr0       uint32 = 0x309 // instructions retired
	ia32FixedCtr1       uint32 = 0x30A // core clock cycles unhalted
	ia32FixedCtr2       uint32 = 0x30B // reference clock cycles unhalted
	MSRRaplPowerUnit    uint32 = 0x606 // energy status units in bits 12:8
	MSRPkgEnergyStatus  uint32 = 0x611 // package energy, 32-bit accumulator
	MSRDramEnergyStatus uint32 = 0x619 // DRAM energy, 32-bit accumulator
	MSRUncoreRatioLimit uint32 = 0x620 // max ratio bits 6:0, min ratio bits 14:8
	MSRUncorePerfStatus uint32 = 0x621 // current uncore ratio in bits 6:0
)

// defaultEnergyStatusUnit is the power-of-two divisor exponent for RAPL
// energy counters: one count is 2^-14 J (= 61 µJ), the Skylake-SP value.
const defaultEnergyStatusUnit = 14

// errUnknownRegister is returned when reading or writing an address the
// socket does not implement.
type errUnknownRegister struct{ Addr uint32 }

func (e errUnknownRegister) Error() string {
	return fmt.Sprintf("msr: unknown register 0x%X", e.Addr)
}

// errReadOnly is returned when software writes a register only hardware
// may update.
type errReadOnly struct{ Addr uint32 }

func (e errReadOnly) Error() string {
	return fmt.Sprintf("msr: register 0x%X is read-only", e.Addr)
}

// numRegs is the number of implemented registers. Register storage is a
// dense array indexed by regIndex: the register file sits on the
// simulator's per-step hot path (the uncore controller and RAPL touch it
// every tick), and a fixed array of atomics is both allocation-free and
// an order of magnitude cheaper than the map+mutex it replaces, with
// identical values and visibility semantics.
const numRegs = 13

// regIndex maps a register address to its slot, or -1 when the socket
// does not implement it.
func regIndex(addr uint32) int {
	switch addr {
	case IA32MPerf:
		return 0
	case IA32APerf:
		return 1
	case IA32PerfStatus:
		return 2
	case IA32PerfCtl:
		return 3
	case IA32EnergyPerfBias:
		return 4
	case ia32FixedCtr0:
		return 5
	case ia32FixedCtr1:
		return 6
	case ia32FixedCtr2:
		return 7
	case MSRRaplPowerUnit:
		return 8
	case MSRPkgEnergyStatus:
		return 9
	case MSRDramEnergyStatus:
		return 10
	case MSRUncoreRatioLimit:
		return 11
	case MSRUncorePerfStatus:
		return 12
	default:
		return -1
	}
}

// File is the register file of one socket. The zero value is not usable
// until Init programs its power-on defaults.
type File struct {
	regs [numRegs]atomic.Uint64
}

// writableBySoftware reports whether EARL may write the register.
func writableBySoftware(addr uint32) bool {
	switch addr {
	case IA32PerfCtl, IA32EnergyPerfBias, MSRUncoreRatioLimit:
		return true
	}
	return false
}

// Init (re)programs power-on defaults in place: uncore ratio limits set
// to the given hardware range, RAPL units programmed, and all counters
// zero. A File embedded in a larger allocation — or recycled from a
// pool — starts from the same state whatever it held before.
func (f *File) Init(uncoreMinRatio, uncoreMaxRatio uint64) {
	for i := range f.regs {
		f.regs[i].Store(0)
	}
	f.regs[regIndex(IA32EnergyPerfBias)].Store(6) // BIOS default: balanced
	f.regs[regIndex(MSRRaplPowerUnit)].Store(defaultEnergyStatusUnit << 8)
	f.regs[regIndex(MSRUncoreRatioLimit)].Store(EncodeUncoreRatioLimit(UncoreRatioLimit{
		MinRatio: uncoreMinRatio,
		MaxRatio: uncoreMaxRatio,
	}))
}

// Read returns the value of the register at addr.
func (f *File) Read(addr uint32) (uint64, error) {
	i := regIndex(addr)
	if i < 0 {
		return 0, errUnknownRegister{addr}
	}
	return f.regs[i].Load(), nil
}

// Write stores v into the register at addr, enforcing software
// writability rules.
func (f *File) Write(addr uint32, v uint64) error {
	i := regIndex(addr)
	if i < 0 {
		return errUnknownRegister{addr}
	}
	if !writableBySoftware(addr) {
		return errReadOnly{addr}
	}
	f.regs[i].Store(v)
	return nil
}

// WriteHw stores v into any implemented register, bypassing software
// writability. It is the hardware-side update path used by the simulator.
func (f *File) WriteHw(addr uint32, v uint64) error {
	i := regIndex(addr)
	if i < 0 {
		return errUnknownRegister{addr}
	}
	f.regs[i].Store(v)
	return nil
}

// AddEnergyHw accumulates joules into a RAPL energy-status register,
// converting through the programmed energy unit and wrapping at 32 bits
// as real counters do. Fractional counts are carried by the caller; this
// method truncates, so callers should accumulate joules and convert once
// per update tick. It returns the new raw counter value.
func (f *File) AddEnergyHw(addr uint32, joules float64) (uint64, error) {
	i := regIndex(addr)
	if i < 0 {
		return 0, errUnknownRegister{addr}
	}
	esu := (f.regs[regIndex(MSRRaplPowerUnit)].Load() >> 8) & 0x1F
	counts := uint64(joules * float64(uint64(1)<<esu))
	for {
		old := f.regs[i].Load()
		v := (old + counts) & 0xFFFFFFFF
		if f.regs[i].CompareAndSwap(old, v) {
			return v, nil
		}
	}
}

// EnergyJoules converts a raw energy-status delta (already unwrapped) to
// joules using the programmed energy unit.
func (f *File) EnergyJoules(rawDelta uint64) float64 {
	esu := (f.regs[regIndex(MSRRaplPowerUnit)].Load() >> 8) & 0x1F
	return float64(rawDelta) / float64(uint64(1)<<esu)
}

// EnergyDelta computes the counter advance from prev to cur accounting
// for 32-bit wraparound, as RAPL readers must.
func EnergyDelta(prev, cur uint64) uint64 {
	prev &= 0xFFFFFFFF
	cur &= 0xFFFFFFFF
	if cur >= prev {
		return cur - prev
	}
	return cur + (1 << 32) - prev
}

// UncoreRatioLimit is the decoded form of MSR 0x620. Ratios are in
// 100 MHz units; MaxRatio occupies bits 6:0 and MinRatio bits 14:8.
type UncoreRatioLimit struct {
	MaxRatio uint64
	MinRatio uint64
}

// EncodeUncoreRatioLimit packs the limit into the register layout.
// Ratios are masked to their 7-bit fields.
func EncodeUncoreRatioLimit(u UncoreRatioLimit) uint64 {
	return (u.MaxRatio & 0x7F) | ((u.MinRatio & 0x7F) << 8)
}

// DecodeUncoreRatioLimit unpacks MSR 0x620.
func DecodeUncoreRatioLimit(v uint64) UncoreRatioLimit {
	return UncoreRatioLimit{
		MaxRatio: v & 0x7F,
		MinRatio: (v >> 8) & 0x7F,
	}
}

// EncodePerfCtl packs a requested core ratio into IA32_PERF_CTL layout
// (ratio in bits 15:8).
func EncodePerfCtl(ratio uint64) uint64 { return (ratio & 0xFF) << 8 }

// DecodePerfCtl extracts the requested core ratio from IA32_PERF_CTL.
func DecodePerfCtl(v uint64) uint64 { return (v >> 8) & 0xFF }

// EncodeUncorePerfStatus packs the current uncore ratio into MSR 0x621
// layout (bits 6:0).
func EncodeUncorePerfStatus(ratio uint64) uint64 { return ratio & 0x7F }

// DecodeUncorePerfStatus extracts the current uncore ratio from MSR 0x621.
func DecodeUncorePerfStatus(v uint64) uint64 { return v & 0x7F }
