package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"goear/internal/uncore"
)

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

// TestLoadSpecCurveKinds loads one definition per curve family and
// holds the loaded curve to its constructor's.
func TestLoadSpecCurveKinds(t *testing.T) {
	cases := []struct {
		json string
		want uncore.Curve
	}{
		{`{"type":"always_max","max":24}`, uncore.AlwaysMax(24)},
		{`{"type":"follow_core","offset":-2}`, uncore.FollowCore(-2)},
		{`{"type":"step","threshold":26,"hi":24,"lo":15}`, uncore.Step(26, 24, 15)},
		{`{"type":"fixed","ratio":18}`, uncore.Fixed(18)},
	}
	for _, c := range cases {
		s, err := LoadSpec(strings.NewReader(`{"name":"x","nodes":1,"active_cores":40,"target_time_sec":10,
		  "iter_period_sec":1,
		  "default_segment":{"target_cpi":0.5,"target_gbs":10,"target_power_w":300},
		  "hw_uncore":` + c.json + `}`))
		if err != nil {
			t.Fatalf("%s: %v", c.json, err)
		}
		for core := uint64(10); core <= 30; core++ {
			if got, want := s.HWUncore.Target(core), c.want.Target(core); got != want {
				t.Errorf("%s: Target(%d) = %d, constructor's %d", c.json, core, got, want)
			}
		}
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
