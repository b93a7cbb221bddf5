// Package power models the electrical side of a simulated node and the
// two instruments EAR reads it with:
//
//   - the analytic node power model (core, uncore, DRAM, board, GPU),
//   - RAPL package/DRAM energy counters exposed through per-socket MSRs,
//   - the Intel Node Manager (INM) DC energy counter, which integrates
//     full node power but only updates once per second — the instrument
//     the paper insists on for honest savings accounting (Table VII).
//
// The coefficient split matters for the paper's Table VII: RAPL PCK
// covers only the socket terms (package base + core dynamic + uncore),
// while DC node power adds DRAM, board/fans/PSU and any GPU, so the same
// uncore saving is a larger fraction of PCK power than of DC power.
package power

import (
	"fmt"
	"math"
)

// Coeffs parameterises the node power model. All powers in watts.
type Coeffs struct {
	// NodeConst is board, fans, PSU loss, NIC, drives.
	NodeConst float64
	// PkgBase is the static per-socket package power (includes idle
	// cores and fabric leakage).
	PkgBase float64
	// CoreDynPerCore scales active-core dynamic power:
	// P = CoreDynPerCore · f(GHz) · V(f)² · activity per active core.
	CoreDynPerCore float64
	// V0, V1 define the voltage curve V(f) = V0 + V1·f(GHz).
	V0, V1 float64
	// UncoreDyn and UncoreExp give per-socket uncore power
	// UncoreDyn · f_uncore(GHz)^UncoreExp (mesh, LLC, IMC).
	UncoreDyn float64
	UncoreExp float64
	// DramBase and DramPerGBs give DRAM power DramBase + DramPerGBs·GB/s.
	DramBase   float64
	DramPerGBs float64
}

// SD530Coeffs returns coefficients calibrated for the paper's Lenovo
// SD530 compute node (2× Xeon Gold 6148, 12 DIMMs): they reproduce the
// published DC node powers of Tables II and V through the workload
// calibration, and give the uncore the ~40 % package power share at full
// mesh clock that the eUFS savings in the paper imply.
func SD530Coeffs() Coeffs {
	return Coeffs{
		NodeConst:      70,
		PkgBase:        18,
		CoreDynPerCore: 1.42,
		V0:             0.45,
		V1:             0.18,
		UncoreDyn:      10.2,
		UncoreExp:      1.7,
		DramBase:       20,
		DramPerGBs:     0.20,
	}
}

// GPUNodeCoeffs returns coefficients for the CUDA node (2× Xeon Gold
// 6142M + NVIDIA V100): a smaller uncore share and higher board power.
func GPUNodeCoeffs() Coeffs {
	c := SD530Coeffs()
	c.NodeConst = 85
	c.UncoreDyn = 6.0
	return c
}

// Validate reports whether the coefficients are physical.
func (c Coeffs) Validate() error {
	vals := []struct {
		name string
		v    float64
	}{
		{"NodeConst", c.NodeConst}, {"PkgBase", c.PkgBase},
		{"CoreDynPerCore", c.CoreDynPerCore}, {"V0", c.V0}, {"V1", c.V1},
		{"UncoreDyn", c.UncoreDyn}, {"UncoreExp", c.UncoreExp},
		{"DramBase", c.DramBase}, {"DramPerGBs", c.DramPerGBs},
	}
	for _, x := range vals {
		if x.v < 0 || math.IsNaN(x.v) || math.IsInf(x.v, 0) {
			return fmt.Errorf("power: coefficient %s = %g invalid", x.name, x.v)
		}
	}
	if c.UncoreExp == 0 {
		return fmt.Errorf("power: UncoreExp must be positive")
	}
	return nil
}

// Input is the operating state the model evaluates.
type Input struct {
	CoreFreqGHz   float64 // licence-resolved effective core frequency
	UncoreFreqGHz float64
	Sockets       int
	ActiveCores   int     // cores executing the workload
	Activity      float64 // per-workload dynamic activity factor
	GBs           float64 // achieved DRAM bandwidth
	GPUPower      float64 // constant adder for accelerator nodes
}

// validate reports whether the input is usable.
func (in Input) validate() error {
	switch {
	case in.CoreFreqGHz <= 0 || in.UncoreFreqGHz <= 0:
		return fmt.Errorf("power: frequencies must be positive (%g, %g)", in.CoreFreqGHz, in.UncoreFreqGHz)
	case in.Sockets <= 0:
		return fmt.Errorf("power: sockets must be positive")
	case in.ActiveCores < 0:
		return fmt.Errorf("power: active cores must be non-negative")
	case in.Activity < 0:
		return fmt.Errorf("power: activity must be non-negative")
	case in.GBs < 0:
		return fmt.Errorf("power: bandwidth must be non-negative")
	case in.GPUPower < 0:
		return fmt.Errorf("power: GPU power must be non-negative")
	}
	return nil
}

// Breakdown is the node power split by scope. Pkg is what RAPL PCK
// counters see; Total is what the Node Manager DC meter sees.
type Breakdown struct {
	CoreDyn float64 // dynamic core power, all sockets
	Uncore  float64 // uncore power, all sockets
	PkgBase float64 // static package power, all sockets
	Pkg     float64 // PkgBase + CoreDyn + Uncore (RAPL PCK scope)
	Dram    float64 // RAPL DRAM scope
	Other   float64 // board, fans, PSU
	GPU     float64
	Total   float64 // DC node power (INM scope)
}

// Node evaluates the model.
func (c Coeffs) Node(in Input) (Breakdown, error) {
	if err := c.Validate(); err != nil {
		return Breakdown{}, err
	}
	return c.node(in, math.Pow(in.UncoreFreqGHz, c.UncoreExp))
}

// AtUncore is a model whose coefficients have been validated, held at
// one uncore frequency, so that its Node checks the coefficients and
// raises that frequency to UncoreExp once, not on every call.
type AtUncore struct {
	c    Coeffs
	ghz  float64 // the uncore frequency, GHz
	fExp float64 // ghz^UncoreExp
}

// AtUncore validates c and holds the uncore frequency at ghz, as the
// learning phase does at the hardware maximum.
func (c Coeffs) AtUncore(ghz float64) (AtUncore, error) {
	if err := c.Validate(); err != nil {
		return AtUncore{}, err
	}
	return AtUncore{c: c, ghz: ghz, fExp: math.Pow(ghz, c.UncoreExp)}, nil
}

// Node is Coeffs.Node of an input at the held uncore frequency, bit for
// bit; an input at another uncore frequency is refused.
func (a AtUncore) Node(in Input) (Breakdown, error) {
	if in.UncoreFreqGHz != a.ghz {
		return Breakdown{}, fmt.Errorf("power: uncore %g GHz, model held at %g GHz", in.UncoreFreqGHz, a.ghz)
	}
	return a.c.node(in, a.fExp)
}

// node evaluates the model of valid coefficients, fExp being
// in.UncoreFreqGHz^UncoreExp. Every product that feeds a sum is rounded
// first, so that no target fuses one.
func (c Coeffs) node(in Input, fExp float64) (Breakdown, error) {
	if err := in.validate(); err != nil {
		return Breakdown{}, err
	}
	v := c.V0 + float64(c.V1*in.CoreFreqGHz)
	b := Breakdown{
		CoreDyn: float64(c.CoreDynPerCore * float64(in.ActiveCores) * in.CoreFreqGHz * v * v * in.Activity),
		Uncore:  float64(float64(in.Sockets) * c.UncoreDyn * fExp),
		PkgBase: float64(float64(in.Sockets) * c.PkgBase),
		Dram:    c.DramBase + float64(c.DramPerGBs*in.GBs),
		Other:   c.NodeConst,
		GPU:     in.GPUPower,
	}
	b.Pkg = b.PkgBase + b.CoreDyn + b.Uncore
	b.Total = b.Pkg + b.Dram + b.Other + b.GPU
	return b, nil
}

// SolveActivity inverts the model: it returns the activity factor that
// makes Node(...) produce targetDC watts with the remaining fields of in
// fixed. Used by workload calibration against the published powers.
func (c Coeffs) SolveActivity(in Input, targetDC float64) (float64, error) {
	probe := in
	probe.Activity = 0
	base, err := c.Node(probe)
	if err != nil {
		return 0, err
	}
	v := c.V0 + float64(c.V1*in.CoreFreqGHz)
	coreTerm := c.CoreDynPerCore * float64(in.ActiveCores) * in.CoreFreqGHz * v * v
	if coreTerm <= 0 {
		return 0, fmt.Errorf("power: cannot solve activity with zero core term")
	}
	act := (targetDC - base.Total) / coreTerm
	if act < 0 {
		return 0, fmt.Errorf("power: target %gW below static power %gW", targetDC, base.Total)
	}
	return act, nil
}
