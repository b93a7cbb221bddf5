package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCurveSpecBuild(t *testing.T) {
	cases := []struct {
		spec CurveSpec
		in   uint64
		want uint64
	}{
		{CurveSpec{Type: "always_max", Max: 24}, 10, 24},
		{CurveSpec{Type: "follow_core", Offset: -2}, 22, 20},
		{CurveSpec{Type: "step", Threshold: 24, Hi: 24, Lo: 15}, 23, 15},
		{CurveSpec{Type: "step", Threshold: 24, Hi: 24, Lo: 15}, 24, 24},
		{CurveSpec{Type: "fixed", Ratio: 20}, 5, 20},
	}
	for i, c := range cases {
		curve, err := c.spec.build()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := curve(c.in); got != c.want {
			t.Errorf("case %d: curve(%d) = %d, want %d", i, c.in, got, c.want)
		}
	}
}

func TestCurveSpecErrors(t *testing.T) {
	bads := []CurveSpec{
		{Type: "bogus"},
		{Type: ""},
		{Type: "always_max"},          // missing max
		{Type: "step", Hi: 24},        // missing threshold
		{Type: "step", Threshold: 24}, // missing hi
		{Type: "fixed"},               // missing ratio
	}
	for i, b := range bads {
		if _, err := b.build(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestTemplateIsValidAndCalibrates(t *testing.T) {
	f := Template()
	s, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	cal, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	if cal.Name != "my-app" || len(cal.Segs) != 1 {
		t.Errorf("calibrated = %s with %d segments", cal.Name, len(cal.Segs))
	}
}

func TestLoadSpecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(Template()); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "my-app" || s.Platform.Name != "SD530" {
		t.Errorf("loaded = %s on %s", s.Name, s.Platform.Name)
	}
	if s.FreqBias != 0.992 || s.IMCBias != 0.996 {
		t.Errorf("bias defaults not applied: %v %v", s.FreqBias, s.IMCBias)
	}
}

func TestLoadSpecRejects(t *testing.T) {
	cases := []string{
		"not json",
		`{"unknown_field": 1}`,
		`{"name":"x","platform":"Cray","nodes":1}`, // unknown platform
		`{"name":"x","nodes":1,"active_cores":40,"target_time_sec":10,
		  "iter_period_sec":1,
		  "default_segment":{"target_cpi":0.5,"target_gbs":10,"target_power_w":300},
		  "hw_uncore":{"type":"bogus"}}`, // bad curve
		`{"name":"","nodes":0,"hw_uncore":{"type":"always_max","max":24}}`, // fails validate
	}
	for i, c := range cases {
		if _, err := LoadSpec(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestGPUPlatformSpecFile(t *testing.T) {
	f := Template()
	f.Platform = "GPUNode"
	f.Class = string(Accelerator)
	f.ActiveCores = 1
	f.ProcsPerNode = 1
	f.ThreadsPerProc = 1
	f.GPUPowerW = 100
	f.DefaultSegment = Segment{TargetCPI: 0.5, TargetGBs: 0.1, TargetPowerW: 300, OverlapHint: 0.5}
	s, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if s.Platform.Name != "GPUNode" {
		t.Errorf("platform = %s", s.Platform.Name)
	}
	if _, err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
}
