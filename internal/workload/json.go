package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"goear/internal/uncore"
)

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

	HWUncore uncore.Curve `json:"hw_uncore"`

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
		HWUncore:        f.HWUncore,
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

// LoadSpecFile reads a workload definition from the JSON file at path:
// the one spec-file loader, `earsim -spec` and the goear facade's
// RunSpecFile both read through it.
func LoadSpecFile(path string) (Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return Spec{}, err
	}
	defer func() { _ = f.Close() }() // read-only: nothing to lose
	return LoadSpec(f)
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
		HWUncore: uncore.AlwaysMax(24),
	}
}
