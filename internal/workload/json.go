package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"goear/internal/uncore"
)

// CurveSpec is the serialisable form of an uncore.Curve, so external
// workload definitions can describe the hardware heuristic's response.
type CurveSpec struct {
	// Type selects the curve family: "always_max", "follow_core",
	// "step" or "fixed".
	Type string `json:"type"`
	// Max is the ratio for always_max.
	Max uint64 `json:"max,omitempty"`
	// Offset is follow_core's signed ratio offset.
	Offset int64 `json:"offset,omitempty"`
	// Threshold, Hi, Lo parameterise step.
	Threshold uint64 `json:"threshold,omitempty"`
	Hi        uint64 `json:"hi,omitempty"`
	Lo        uint64 `json:"lo,omitempty"`
	// Ratio is fixed's pin point.
	Ratio uint64 `json:"ratio,omitempty"`
}

// build constructs the runtime curve.
func (c CurveSpec) build() (uncore.Curve, error) {
	switch c.Type {
	case "always_max":
		if c.Max == 0 {
			return nil, fmt.Errorf("workload: always_max curve needs max")
		}
		return uncore.AlwaysMax(c.Max), nil
	case "follow_core":
		return uncore.FollowCore(c.Offset), nil
	case "step":
		if c.Threshold == 0 || c.Hi == 0 {
			return nil, fmt.Errorf("workload: step curve needs threshold and hi")
		}
		return uncore.Step(c.Threshold, c.Hi, c.Lo), nil
	case "fixed":
		if c.Ratio == 0 {
			return nil, fmt.Errorf("workload: fixed curve needs ratio")
		}
		return uncore.Fixed(c.Ratio), nil
	default:
		return nil, fmt.Errorf("workload: unknown curve type %q (always_max, follow_core, step, fixed)", c.Type)
	}
}

// SpecFile is the JSON representation of a workload definition, the
// format `earsim -spec` accepts for user-defined applications.
type SpecFile struct {
	Name      string `json:"name"`
	Class     string `json:"class"`      // cpu-bound, mem-bound, accelerator
	ProgModel string `json:"prog_model"` // informational
	Platform  string `json:"platform"`   // a PlatformNames entry; "" = SD530

	Nodes          int `json:"nodes"`
	ProcsPerNode   int `json:"procs_per_node"`
	ThreadsPerProc int `json:"threads_per_proc"`
	ActiveCores    int `json:"active_cores"`

	TargetTimeSec float64 `json:"target_time_sec"`

	DefaultSegment Segment   `json:"default_segment"`
	Segments       []Segment `json:"segments,omitempty"`

	IterPeriodSec   float64 `json:"iter_period_sec"`
	MPICallsPerIter int     `json:"mpi_calls_per_iter"`

	HWUncore CurveSpec `json:"hw_uncore"`

	GPUPowerW float64 `json:"gpu_power_w,omitempty"`
	FreqBias  float64 `json:"freq_bias,omitempty"`
	IMCBias   float64 `json:"imc_bias,omitempty"`
}

// Spec converts the file form into a validated runtime Spec.
func (f SpecFile) Spec() (Spec, error) {
	pl, err := PlatformByName(f.Platform)
	if err != nil {
		return Spec{}, err
	}
	curve, err := f.HWUncore.build()
	if err != nil {
		return Spec{}, err
	}
	s := Spec{
		Name:            f.Name,
		Class:           Class(f.Class),
		ProgModel:       f.ProgModel,
		Platform:        pl,
		Nodes:           f.Nodes,
		ProcsPerNode:    f.ProcsPerNode,
		ThreadsPerProc:  f.ThreadsPerProc,
		ActiveCores:     f.ActiveCores,
		TargetTimeSec:   f.TargetTimeSec,
		DefaultSegment:  f.DefaultSegment,
		Segments:        f.Segments,
		IterPeriodSec:   f.IterPeriodSec,
		MPICallsPerIter: f.MPICallsPerIter,
		HWUncore:        curve,
		GPUPowerW:       f.GPUPowerW,
		FreqBias:        f.FreqBias,
		IMCBias:         f.IMCBias,
	}
	if s.FreqBias == 0 {
		s.FreqBias = 0.992
	}
	if s.IMCBias == 0 {
		s.IMCBias = 0.996
	}
	if err := s.validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads a workload definition from JSON.
func LoadSpec(r io.Reader) (Spec, error) {
	var f SpecFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return Spec{}, fmt.Errorf("workload: decode spec: %w", err)
	}
	return f.Spec()
}

// Template returns a documented starter definition a user can edit.
func Template() SpecFile {
	return SpecFile{
		Name:      "my-app",
		Class:     string(cpuBound),
		ProgModel: "MPI",
		Platform:  "SD530",
		Nodes:     2, ProcsPerNode: 40, ThreadsPerProc: 1, ActiveCores: 40,
		TargetTimeSec: 300,
		DefaultSegment: Segment{
			TargetCPI: 0.5, TargetGBs: 25, TargetPowerW: 330, OverlapHint: 0.8,
		},
		IterPeriodSec: 1.5, MPICallsPerIter: 8,
		HWUncore: CurveSpec{Type: "always_max", Max: 24},
	}
}
