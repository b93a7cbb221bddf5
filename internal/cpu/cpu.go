// Package cpu models the processor side of a simulated compute node:
// socket topology, the pstate table, turbo and AVX512 frequency licences,
// and DVFS actuation through the per-socket MSR file.
//
// Pstate numbering follows the EAR convention: pstate 0 is turbo,
// pstate 1 is the nominal (maximum non-turbo) frequency, and each further
// pstate lowers the frequency by one ratio step (100 MHz). On the Xeon
// Gold 6148 used in the paper, pstate 1 = 2.4 GHz and pstate 3 = 2.2 GHz,
// the all-core AVX512 licence frequency.
package cpu

import (
	"fmt"

	"goear/internal/msr"
	"goear/internal/units"
)

// BusClock is the ratio granularity shared by core and uncore domains.
var BusClock = units.GHz(0.1)

// Model describes a processor SKU.
type Model struct {
	Name           string
	Sockets        int
	CoresPerSocket int

	// Core frequency ratios, in BusClock units.
	NominalRatio uint64 // maximum non-turbo ratio (pstate 1)
	TurboRatio   uint64 // all-core turbo ratio (pstate 0)
	MinRatio     uint64 // lowest supported ratio
	AVX512Ratio  uint64 // all-core AVX512 licence ratio

	// Uncore frequency ratio range exposed in MSR 0x620 after boot.
	UncoreMinRatio uint64
	UncoreMaxRatio uint64
}

// XeonGold6148 is the two-socket Lenovo SD530 configuration used for all
// non-CUDA experiments in the paper: 2× Xeon Gold 6148 (20 cores,
// 2.4 GHz nominal, 2.2 GHz all-core AVX512, uncore 1.2–2.4 GHz).
func XeonGold6148() Model {
	return Model{
		Name:           "Intel(R) Xeon(R) Gold 6148 CPU @ 2.40GHz",
		Sockets:        2,
		CoresPerSocket: 20,
		NominalRatio:   24,
		TurboRatio:     26, // modelled all-core turbo
		MinRatio:       10,
		AVX512Ratio:    22,
		UncoreMinRatio: 12,
		UncoreMaxRatio: 24,
	}
}

// XeonGold6142M is the GPU-node CPU used for the CUDA kernels: 2× Xeon
// Gold 6142M (16 cores, 2.6 GHz nominal), same uncore range.
func XeonGold6142M() Model {
	return Model{
		Name:           "Intel(R) Xeon(R) Gold 6142M CPU @ 2.60GHz",
		Sockets:        2,
		CoresPerSocket: 16,
		NominalRatio:   26,
		TurboRatio:     28,
		MinRatio:       10,
		AVX512Ratio:    22,
		UncoreMinRatio: 12,
		UncoreMaxRatio: 24,
	}
}

// XeonGold6252 is a Cascade Lake-SP part (24 cores, 2.1 GHz nominal),
// included to demonstrate per-architecture portability: the learning
// phase retrains the energy model and the whole pipeline runs unchanged.
// Cascade Lake keeps Skylake's uncore architecture and MSR interfaces.
func XeonGold6252() Model {
	return Model{
		Name:           "Intel(R) Xeon(R) Gold 6252 CPU @ 2.10GHz",
		Sockets:        2,
		CoresPerSocket: 24,
		NominalRatio:   21,
		TurboRatio:     24,
		MinRatio:       10,
		AVX512Ratio:    16,
		UncoreMinRatio: 12,
		UncoreMaxRatio: 24,
	}
}

// Validate reports whether the model is internally consistent.
func (m Model) Validate() error {
	switch {
	case m.Sockets <= 0 || m.CoresPerSocket <= 0:
		return fmt.Errorf("cpu: %s: topology must be positive", m.Name)
	case m.MinRatio == 0 || m.MinRatio > m.NominalRatio:
		return fmt.Errorf("cpu: %s: min ratio %d outside (0, nominal %d]", m.Name, m.MinRatio, m.NominalRatio)
	case m.TurboRatio < m.NominalRatio:
		return fmt.Errorf("cpu: %s: turbo ratio %d below nominal %d", m.Name, m.TurboRatio, m.NominalRatio)
	case m.AVX512Ratio > m.NominalRatio:
		return fmt.Errorf("cpu: %s: AVX512 ratio %d above nominal %d", m.Name, m.AVX512Ratio, m.NominalRatio)
	case m.UncoreMinRatio == 0 || m.UncoreMinRatio > m.UncoreMaxRatio:
		return fmt.Errorf("cpu: %s: uncore range [%d,%d] invalid", m.Name, m.UncoreMinRatio, m.UncoreMaxRatio)
	}
	return nil
}

// TotalCores returns the number of cores in the node.
func (m Model) TotalCores() int { return m.Sockets * m.CoresPerSocket }

// PstateCount returns the number of pstates: turbo plus every 100 MHz
// step from nominal down to the minimum ratio.
func (m Model) PstateCount() int { return int(m.NominalRatio-m.MinRatio) + 2 }

// PstateFreq returns the target frequency of pstate p. Pstate 0 (turbo)
// reports the nominal frequency plus one ratio step, matching how
// cpufreq exposes the turbo request; the realised turbo frequency is
// workload dependent and resolved by EffectiveRatio.
func (m Model) PstateFreq(p int) (units.Freq, error) {
	if p < 0 || p >= m.PstateCount() {
		return units.Freq{}, fmt.Errorf("cpu: pstate %d out of range [0,%d)", p, m.PstateCount())
	}
	if p == 0 {
		return units.FromRatio(m.NominalRatio+1, BusClock), nil
	}
	return units.FromRatio(m.NominalRatio-uint64(p-1), BusClock), nil
}

// PstateRatio returns the requested core ratio for pstate p.
func (m Model) PstateRatio(p int) (uint64, error) {
	if p < 0 || p >= m.PstateCount() {
		return 0, fmt.Errorf("cpu: pstate %d out of range [0,%d)", p, m.PstateCount())
	}
	if p == 0 {
		return m.NominalRatio + 1, nil
	}
	return m.NominalRatio - uint64(p-1), nil
}

// RatioPstate maps a requested core ratio back to its pstate index.
func (m Model) RatioPstate(ratio uint64) (int, error) {
	if ratio > m.NominalRatio {
		return 0, nil
	}
	if ratio < m.MinRatio {
		return 0, fmt.Errorf("cpu: ratio %d below minimum %d", ratio, m.MinRatio)
	}
	return int(m.NominalRatio-ratio) + 1, nil
}

// Pstates returns the full frequency table, pstate 0 first.
func (m Model) Pstates() []units.Freq {
	out := make([]units.Freq, m.PstateCount())
	for p := range out {
		f, _ := m.PstateFreq(p)
		out[p] = f
	}
	return out
}

// EffectiveRatio resolves the ratio the cores actually run at given the
// requested ratio and the AVX512 licence: when the whole socket executes
// AVX512 (vpi≈1) the ratio is capped at the licence ratio; turbo requests
// resolve to the all-core turbo ratio. Mixed vpi is handled by the
// execution model, which weights the two licence levels.
func (m Model) EffectiveRatio(requested uint64, avx512Active bool) uint64 {
	r := requested
	if r > m.TurboRatio {
		r = m.TurboRatio
	}
	if r < m.MinRatio {
		r = m.MinRatio
	}
	if avx512Active && r > m.AVX512Ratio {
		r = m.AVX512Ratio
	}
	return r
}

// Socket is one package of a node: its MSR file plus cached topology.
// The register file is embedded so one Socket is one allocation; MSR
// points at the embedded file, so a constructed Socket must not be
// copied by value.
type Socket struct {
	Model Model
	ID    int
	MSR   *msr.File

	file msr.File
}

// NewSocket builds a socket with power-on MSR defaults and the perf
// control register requesting the nominal ratio.
func NewSocket(m Model, id int) (*Socket, error) {
	s := &Socket{}
	if err := s.Init(m, id); err != nil {
		return nil, err
	}
	return s, nil
}

// Init (re)initialises the socket in place to the power-on state, as
// NewSocket does, without allocating. It is the construction path for
// sockets living inside a larger allocation (the simulator's per-node
// state).
func (s *Socket) Init(m Model, id int) error {
	if err := m.Validate(); err != nil {
		return err
	}
	s.Model, s.ID = m, id
	s.file.Init(m.UncoreMinRatio, m.UncoreMaxRatio)
	s.MSR = &s.file
	if err := s.MSR.WriteHw(msr.IA32PerfCtl, msr.EncodePerfCtl(m.NominalRatio)); err != nil {
		return err
	}
	if err := s.MSR.WriteHw(msr.IA32PerfStatus, msr.EncodePerfCtl(m.NominalRatio)); err != nil {
		return err
	}
	return s.MSR.WriteHw(msr.MSRUncorePerfStatus,
		msr.EncodeUncorePerfStatus(m.UncoreMinRatio))
}

// RequestRatio writes the requested core ratio through IA32_PERF_CTL,
// exactly as the EAR daemon does via the cpufreq userspace governor.
func (s *Socket) RequestRatio(ratio uint64) error {
	if ratio < s.Model.MinRatio || ratio > s.Model.TurboRatio {
		return fmt.Errorf("cpu: socket %d: ratio %d outside [%d,%d]",
			s.ID, ratio, s.Model.MinRatio, s.Model.TurboRatio)
	}
	return s.MSR.Write(msr.IA32PerfCtl, msr.EncodePerfCtl(ratio))
}

// RequestedRatio reads back the requested core ratio.
func (s *Socket) RequestedRatio() (uint64, error) {
	v, err := s.MSR.Read(msr.IA32PerfCtl)
	if err != nil {
		return 0, err
	}
	return msr.DecodePerfCtl(v), nil
}

// SetUncoreLimits writes MSR 0x620, clamping to the hardware range as
// the silicon does.
func (s *Socket) SetUncoreLimits(minRatio, maxRatio uint64) error {
	if minRatio > maxRatio {
		return fmt.Errorf("cpu: socket %d: uncore min %d > max %d", s.ID, minRatio, maxRatio)
	}
	clamp := func(r uint64) uint64 {
		if r < s.Model.UncoreMinRatio {
			return s.Model.UncoreMinRatio
		}
		if r > s.Model.UncoreMaxRatio {
			return s.Model.UncoreMaxRatio
		}
		return r
	}
	minRatio, maxRatio = clamp(minRatio), clamp(maxRatio)
	return s.MSR.Write(msr.MSRUncoreRatioLimit,
		msr.EncodeUncoreRatioLimit(msr.UncoreRatioLimit{MinRatio: minRatio, MaxRatio: maxRatio}))
}

// UncoreLimits reads the decoded MSR 0x620.
func (s *Socket) UncoreLimits() (msr.UncoreRatioLimit, error) {
	v, err := s.MSR.Read(msr.MSRUncoreRatioLimit)
	if err != nil {
		return msr.UncoreRatioLimit{}, err
	}
	return msr.DecodeUncoreRatioLimit(v), nil
}

// CurrentUncoreRatio reads the operating uncore ratio from MSR 0x621.
func (s *Socket) CurrentUncoreRatio() (uint64, error) {
	v, err := s.MSR.Read(msr.MSRUncorePerfStatus)
	if err != nil {
		return 0, err
	}
	return msr.DecodeUncorePerfStatus(v), nil
}

// OperatingPoint reads the socket's requested core ratio and operating
// uncore ratio in one call — the pair every steady-state evaluation
// keys on. Batch stepping reads it per arm-check, so the two register
// loads share one call.
func (s *Socket) OperatingPoint() (coreRatio, uncoreRatio uint64, err error) {
	cv, err := s.MSR.Read(msr.IA32PerfCtl)
	if err != nil {
		return 0, 0, err
	}
	uv, err := s.MSR.Read(msr.MSRUncorePerfStatus)
	if err != nil {
		return 0, 0, err
	}
	return msr.DecodePerfCtl(cv), msr.DecodeUncorePerfStatus(uv), nil
}
