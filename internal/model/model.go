// Package model implements EAR's energy models: given the application
// signature measured at one CPU pstate, they predict iteration time and
// DC node power at any other pstate. The policies rank pstates with
// these predictions.
//
// The core follows Bell/Brochard (US8527997B2): per (from, to) pstate
// pair, linear projections
//
//	CPI(to)   = A·CPI(from) + B·TPI + C
//	Power(to) = D·Power(from) + E·TPI + F
//	Time(to)  = Time(from) · (CPI(to)·f(from)) / (CPI(from)·f(to))
//
// whose coefficients EAR learns per architecture in an offline phase.
// Two refinements (both derived from signature-visible quantities, as
// EAR's per-phase-classified models are):
//
//   - coefficients are fitted per memory-utilisation class (the GB/s
//     share of the node's memory capability), because latency-bound and
//     bandwidth-bound phases respond differently to frequency; and
//   - predicted time is clamped by the bandwidth roofline: no frequency
//     can push the phase's achieved bandwidth beyond the memory
//     subsystem's saturated capability, so Time(to) is at least
//     Time(from)·GBs(from)/SatGBs.
//
// In this repository the learning phase (Train) runs probe workloads
// through the simulator's execution and power models across all pstate
// pairs and fits the coefficients by least squares — mirroring how EAR
// trains against kernels on real nodes.
//
// The AVX512 model (the paper's §V-A extension) combines the default
// prediction at the requested pstate with one whose pstates are limited
// to the all-core AVX512 licence pstate, weighted by the signature's
// AVX512 fraction (VPI). It captures the fact that AVX512 code cannot
// benefit from frequencies above the licence.
package model

import (
	"encoding/json"
	"fmt"

	"goear/internal/cpu"
	"goear/internal/metrics"
	"goear/internal/units"
)

// numClasses is the number of memory-utilisation classes.
const numClasses = 3

// Utilisation class boundaries (fraction of memory capability).
const (
	classLowMax = 0.2
	classMidMax = 0.5
)

// LinCoeffs are linear projection coefficients for one class of one
// (from, to) pstate pair.
type LinCoeffs struct {
	A, B, C float64 // CPI projection
	D, E, F float64 // power projection
}

// PairCoeffs holds the per-class coefficients of one pstate pair.
type PairCoeffs struct {
	ByClass [numClasses]LinCoeffs
}

// Model is a trained per-architecture energy model.
type Model struct {
	// FreqGHz is the target frequency of each pstate (index 0 = turbo).
	FreqGHz []float64
	// AVX512Pstate is the pstate of the all-core AVX512 licence
	// frequency (3 on the paper's Xeon 6148: 2.2 GHz).
	AVX512Pstate int
	// CapGBs is the node memory capability at the maximum uncore
	// frequency; SatGBs the saturated achievable bandwidth.
	CapGBs float64
	SatGBs float64
	// Pairs[from][to] holds the projection coefficients.
	Pairs [][]PairCoeffs
}

// Prediction is a projected operating point.
type Prediction struct {
	TimeSec float64
	PowerW  float64
	CPI     float64
}

// Validate reports whether the model is structurally sound.
func (m *Model) Validate() error {
	n := len(m.FreqGHz)
	if n == 0 {
		return fmt.Errorf("model: empty pstate table")
	}
	if len(m.Pairs) != n {
		return fmt.Errorf("model: %d pair rows for %d pstates", len(m.Pairs), n)
	}
	for i, row := range m.Pairs {
		if len(row) != n {
			return fmt.Errorf("model: pair row %d has %d entries, want %d", i, len(row), n)
		}
	}
	if m.AVX512Pstate < 0 || m.AVX512Pstate >= n {
		return fmt.Errorf("model: AVX512 pstate %d outside table", m.AVX512Pstate)
	}
	if m.CapGBs <= 0 || m.SatGBs <= 0 || m.SatGBs > m.CapGBs {
		return fmt.Errorf("model: bandwidth capability (%g, %g) invalid", m.CapGBs, m.SatGBs)
	}
	for i, f := range m.FreqGHz {
		if f <= 0 {
			return fmt.Errorf("model: pstate %d frequency %g invalid", i, f)
		}
	}
	return nil
}

// PstateCount returns the number of pstates the model covers.
func (m *Model) PstateCount() int { return len(m.FreqGHz) }

// classOf returns the memory-utilisation class of a bandwidth level.
func (m *Model) classOf(gbs float64) int {
	u := gbs / m.CapGBs
	switch {
	case u < classLowMax:
		return 0
	case u < classMidMax:
		return 1
	default:
		return 2
	}
}

// projectDefault applies the class-selected projection with the
// bandwidth-roofline clamp.
func (m *Model) projectDefault(sig metrics.Signature, from, to int) Prediction {
	c := m.Pairs[from][to].ByClass[m.classOf(sig.GBs)]
	cpi2 := float64(c.A*sig.CPI) + float64(c.B*sig.TPI) + c.C
	pow2 := float64(c.D*sig.DCPowerW) + float64(c.E*sig.TPI) + c.F
	f1, f2 := m.FreqGHz[from], m.FreqGHz[to]
	// Roofline: achieved bandwidth cannot exceed the saturated
	// capability at any frequency, which bounds CPI from below.
	if m.SatGBs > 0 && sig.GBs > 0 {
		if bw := sig.CPI * (f2 / f1) * (sig.GBs / m.SatGBs); cpi2 < bw {
			cpi2 = bw
		}
	}
	if cpi2 <= 0 {
		cpi2 = sig.CPI // degenerate fit guard
	}
	t2 := sig.IterTimeSec * (cpi2 * f1) / (sig.CPI * f2)
	return Prediction{TimeSec: t2, PowerW: pow2, CPI: cpi2}
}

// Predict projects the signature measured at pstate from onto pstate to
// using the AVX512-aware model: the default prediction and a prediction
// whose pstates are capped at the AVX512 licence are blended by VPI.
func (m *Model) Predict(sig metrics.Signature, from, to int) (Prediction, error) {
	if err := m.checkPstates(from, to); err != nil {
		return Prediction{}, err
	}
	if sig.CPI <= 0 || sig.IterTimeSec <= 0 {
		return Prediction{}, fmt.Errorf("model: signature lacks CPI or time")
	}
	def := m.projectDefault(sig, from, to)
	if sig.VPI <= 0 {
		return def, nil
	}
	// AVX512 branch: the cores cannot run faster than the licence
	// pstate, so cap the target (higher pstate index = lower
	// frequency). The source is capped too: an AVX512-dominated
	// signature was measured under the licence even if a faster pstate
	// was requested.
	toAvx := to
	if toAvx < m.AVX512Pstate {
		toAvx = m.AVX512Pstate
	}
	fromAvx := from
	if fromAvx < m.AVX512Pstate {
		fromAvx = m.AVX512Pstate
	}
	avx := m.projectDefault(sig, fromAvx, toAvx)
	w := sig.VPI
	return Prediction{
		TimeSec: float64((1-w)*def.TimeSec) + float64(w*avx.TimeSec),
		PowerW:  float64((1-w)*def.PowerW) + float64(w*avx.PowerW),
		CPI:     float64((1-w)*def.CPI) + float64(w*avx.CPI),
	}, nil
}

// PredictDefault projects with the pre-extension model (no AVX512
// blending); kept for the A2 ablation experiment.
func (m *Model) PredictDefault(sig metrics.Signature, from, to int) (Prediction, error) {
	if err := m.checkPstates(from, to); err != nil {
		return Prediction{}, err
	}
	if sig.CPI <= 0 || sig.IterTimeSec <= 0 {
		return Prediction{}, fmt.Errorf("model: signature lacks CPI or time")
	}
	return m.projectDefault(sig, from, to), nil
}

// Table is a per-signature-window prediction lookup table: the
// projections of one measured signature from one source pstate onto
// every target pstate. The pstate-search policies evaluate the same
// (sig, from) pair against every candidate pstate — and the reference
// pstate twice — so they build a Table once per signature window and
// rank by lookup instead of re-projecting.
type Table struct {
	// From is the source pstate the entries were projected from.
	From int
	// Preds is indexed by target pstate.
	Preds []Prediction
}

// BuildTable fills dst with the prediction at every target pstate,
// reusing dst's backing storage across windows. Every entry is produced
// by the same Predict (or PredictDefault, when useAVX512 is false) call
// a direct evaluation would make, so table-driven policies are
// bit-identical to call-per-pstate policies.
func (m *Model) BuildTable(dst *Table, sig metrics.Signature, from int, useAVX512 bool) error {
	n := m.PstateCount()
	if cap(dst.Preds) < n {
		dst.Preds = make([]Prediction, n)
	} else {
		dst.Preds = dst.Preds[:n]
	}
	dst.From = from
	for to := 0; to < n; to++ {
		var (
			p   Prediction
			err error
		)
		if useAVX512 {
			p, err = m.Predict(sig, from, to)
		} else {
			p, err = m.PredictDefault(sig, from, to)
		}
		if err != nil {
			return err
		}
		dst.Preds[to] = p
	}
	return nil
}

func (m *Model) checkPstates(from, to int) error {
	if from < 0 || from >= len(m.FreqGHz) || to < 0 || to >= len(m.FreqGHz) {
		return fmt.Errorf("model: pstate pair (%d,%d) outside table of %d", from, to, len(m.FreqGHz))
	}
	return nil
}

// pstateTable builds the model frequency table from a CPU model: entry 0
// is the all-core turbo frequency, entry 1 the nominal, stepping down.
func pstateTable(c cpu.Model) []float64 {
	out := make([]float64, c.PstateCount())
	for p := range out {
		out[p] = pstateGHz(c, p)
	}
	return out
}

// pstateGHz is entry p of c's pstate table.
func pstateGHz(c cpu.Model, p int) float64 {
	if p == 0 {
		return units.FromRatio(c.TurboRatio, cpu.BusClock).GHzF()
	}
	return units.FromRatio(c.NominalRatio-uint64(p-1), cpu.BusClock).GHzF()
}

// avx512Pstate is the pstate of c's all-core AVX512 licence frequency.
func avx512Pstate(c cpu.Model) int { return int(c.NominalRatio-c.AVX512Ratio) + 1 }

// Fits returns nil when the model was trained for CPU c: the same
// pstate table and AVX512 licence pstate. Otherwise the error names
// both turbo frequencies. It allocates nothing when the model fits.
func (m *Model) Fits(c cpu.Model) error {
	fits := len(m.FreqGHz) == c.PstateCount() && m.AVX512Pstate == avx512Pstate(c)
	for p := 0; fits && p < len(m.FreqGHz); p++ {
		fits = m.FreqGHz[p] == pstateGHz(c, p)
	}
	if fits {
		return nil
	}
	var turbo float64
	if len(m.FreqGHz) > 0 {
		turbo = m.FreqGHz[0]
	}
	return fmt.Errorf("model: trained for a %.1f GHz turbo (%d pstates, AVX512 pstate %d), the CPU has a %.1f GHz turbo (%d pstates, AVX512 pstate %d)",
		turbo, len(m.FreqGHz), m.AVX512Pstate, pstateGHz(c, 0), c.PstateCount(), avx512Pstate(c))
}

// MarshalJSON / UnmarshalJSON give the model a stable on-disk format so
// a learning phase (earctl learn) can persist coefficients.

type modelJSON struct {
	FreqGHz      []float64      `json:"freq_ghz"`
	AVX512Pstate int            `json:"avx512_pstate"`
	CapGBs       float64        `json:"cap_gbs"`
	SatGBs       float64        `json:"sat_gbs"`
	Pairs        [][]PairCoeffs `json:"pairs"`
}

// MarshalJSON implements json.Marshaler.
func (m *Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelJSON{m.FreqGHz, m.AVX512Pstate, m.CapGBs, m.SatGBs, m.Pairs})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Model) UnmarshalJSON(b []byte) error {
	var j modelJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	m.FreqGHz, m.AVX512Pstate, m.Pairs = j.FreqGHz, j.AVX512Pstate, j.Pairs
	m.CapGBs, m.SatGBs = j.CapGBs, j.SatGBs
	return m.Validate()
}
