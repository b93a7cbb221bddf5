package workload

import (
	"math"
	"strings"
	"testing"

	"goear/internal/perf"
	"goear/internal/power"
	"goear/internal/uncore"
)

func TestCatalogAllValid(t *testing.T) {
	cat := Catalog()
	if len(cat) < 14 {
		t.Fatalf("catalogue has %d entries, want >= 14", len(cat))
	}
	for _, s := range cat {
		if err := s.validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestCatalogCalibratesEverywhere(t *testing.T) {
	for _, s := range Catalog() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			c, err := s.Calibrate()
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Segs) == 0 {
				t.Fatal("no calibrated segments")
			}
			// At the nominal operating point, each segment must
			// reproduce its published signature through the models.
			iters := 0
			for i, g := range c.Segs {
				iters += g.Iterations
				res, err := perf.Evaluate(s.Platform.Machine, g.Phase, c.NominalOp)
				if err != nil {
					t.Fatalf("segment %d: %v", i, err)
				}
				if math.Abs(res.CPI-g.TargetCPI) > 0.02*g.TargetCPI {
					t.Errorf("segment %d CPI = %v, want %v", i, res.CPI, g.TargetCPI)
				}
				if g.TargetGBs > 0.5 && math.Abs(res.NodeGBs-g.TargetGBs) > 0.03*g.TargetGBs {
					t.Errorf("segment %d GB/s = %v, want %v", i, res.NodeGBs, g.TargetGBs)
				}
				in := power.Input{
					CoreFreqGHz:   res.EffCoreFreq.GHzF(),
					UncoreFreqGHz: res.UncoreFreq.GHzF(),
					Sockets:       s.Platform.Machine.CPU.Sockets,
					ActiveCores:   s.ActiveCores,
					Activity:      g.Activity,
					GBs:           res.NodeGBs,
					GPUPower:      s.GPUPowerW,
				}
				b, err := s.Platform.Power.Node(in)
				if err != nil {
					t.Fatalf("segment %d: %v", i, err)
				}
				if math.Abs(b.Total-g.TargetPowerW) > 0.01*g.TargetPowerW {
					t.Errorf("segment %d power = %v, want %v", i, b.Total, g.TargetPowerW)
				}
				if g.Iterations < 1 {
					t.Errorf("segment %d has %d iterations", i, g.Iterations)
				}
				if g.InstrPerIter <= 0 {
					t.Errorf("segment %d instr/iter = %v", i, g.InstrPerIter)
				}
			}
			// Total simulated duration at nominal must land near the
			// published time.
			wall := float64(iters) * s.IterPeriodSec
			if math.Abs(wall-s.TargetTimeSec) > 0.02*s.TargetTimeSec {
				t.Errorf("nominal wall time = %v, want %v", wall, s.TargetTimeSec)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	s, err := Lookup(HPCG)
	if err != nil {
		t.Fatal(err)
	}
	if s.Class != memBound {
		t.Errorf("HPCG class = %v, want mem-bound", s.Class)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("expected error for unknown workload")
	}
}

// The catalogue is built once and shared; what Lookup and Catalog hand
// out must not reach it.
func TestReturnedSpecsAreCopies(t *testing.T) {
	want, err := Lookup(PhaseChange)
	if err != nil {
		t.Fatal(err)
	}
	wantCPI := want.Segments[1].TargetCPI

	s, _ := Lookup(PhaseChange)
	s.Segments[1].TargetCPI = 99
	s.Segments = append(s.Segments, Segment{})
	cat := Catalog()
	for i := range cat {
		if cat[i].Name == PhaseChange {
			cat[i].Segments[1].TargetCPI = 98
			cat[i].TargetTimeSec = 1
		}
	}

	got, _ := Lookup(PhaseChange)
	if len(got.Segments) != 2 || got.Segments[1].TargetCPI != wantCPI || got.TargetTimeSec != want.TargetTimeSec {
		t.Errorf("Lookup after callers mutated their copies = %+v", got)
	}
}

func TestLookupWithoutSegmentsDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Lookup(BTMZC); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Lookup(%s) allocates %v times, want 0", BTMZC, n)
	}
}

func TestKernelsAndApplicationsResolve(t *testing.T) {
	for _, n := range append(Kernels(), Applications()...) {
		if _, err := Lookup(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if len(Kernels()) != 5 {
		t.Errorf("kernels = %d, want 5 (Table II rows)", len(Kernels()))
	}
	if len(Applications()) != 8 {
		t.Errorf("applications = %d, want 8 (Table V rows)", len(Applications()))
	}
}

func TestValidateRejects(t *testing.T) {
	base, err := Lookup(BTMZC)
	if err != nil {
		t.Fatal(err)
	}
	muts := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.Nodes = 0 },
		func(s *Spec) { s.ActiveCores = 0 },
		func(s *Spec) { s.ActiveCores = 100 },
		func(s *Spec) { s.TargetTimeSec = 0 },
		func(s *Spec) { s.IterPeriodSec = 0 },
		func(s *Spec) { s.MPICallsPerIter = -1 },
		func(s *Spec) { s.HWUncore = uncore.Curve{} },
		func(s *Spec) { s.FreqBias = 0 },
		func(s *Spec) { s.FreqBias = 1.5 },
		func(s *Spec) { s.IMCBias = 0 },
		func(s *Spec) { s.GPUPowerW = -1 },
		func(s *Spec) { s.DefaultSegment.TargetCPI = 0 },
		func(s *Spec) { s.DefaultSegment.VPI = 2 },
	}
	for i, mut := range muts {
		s := base
		mut(&s)
		if err := s.validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

func TestValidateSegmentFractions(t *testing.T) {
	s, err := Lookup(PhaseChange)
	if err != nil {
		t.Fatal(err)
	}
	s.Segments[0].FracIters = 0.2 // sums to 0.7
	defer func() { s.Segments[0].FracIters = 0.5 }()
	if err := s.validate(); err == nil {
		t.Error("expected error for fractions not summing to 1")
	}
}

func TestPhaseChangeSegments(t *testing.T) {
	s, err := Lookup(PhaseChange)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(c.Segs))
	}
	// Iterations split roughly evenly and cover the total.
	if total := int(math.Round(s.TargetTimeSec / s.IterPeriodSec)); c.Segs[0].Iterations+c.Segs[1].Iterations != total {
		t.Errorf("segment iterations %d + %d do not sum to the run's %d", c.Segs[0].Iterations, c.Segs[1].Iterations, total)
	}
	if d := c.Segs[0].Iterations - c.Segs[1].Iterations; d < -1 || d > 1 {
		t.Errorf("uneven split: %d vs %d", c.Segs[0].Iterations, c.Segs[1].Iterations)
	}
}

func TestMPIEvents(t *testing.T) {
	s, err := Lookup(BQCD)
	if err != nil {
		t.Fatal(err)
	}
	ev := s.AppendMPIEvents(nil)
	if len(ev) != s.MPICallsPerIter {
		t.Fatalf("events = %d, want %d", len(ev), s.MPICallsPerIter)
	}
	// Identifiers within an iteration must be distinct (different call
	// sites) and deterministic across calls.
	seen := map[uint32]bool{}
	for _, e := range ev {
		if seen[e] {
			t.Errorf("duplicate event id %d", e)
		}
		seen[e] = true
	}
	ev2 := s.AppendMPIEvents(make([]uint32, 3, 64))
	for i := range ev {
		if ev[i] != ev2[i] {
			t.Error("event stream not deterministic")
		}
	}
	// Different workloads get different id spaces.
	s2, _ := Lookup(HPCG)
	if s2.AppendMPIEvents(nil)[0] == ev[0] {
		t.Error("different workloads share call-site ids")
	}
	// Non-MPI workloads have none.
	k, _ := Lookup(BTMZC)
	if len(k.AppendMPIEvents(nil)) != 0 {
		t.Error("OpenMP kernel must have no MPI events")
	}
}

func TestCUDAWorkloadsUseGPUPlatform(t *testing.T) {
	for _, n := range []string{BTCUDA, LUCUDA} {
		s, err := Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Platform.Name != "GPUNode" {
			t.Errorf("%s platform = %s, want GPUNode", n, s.Platform.Name)
		}
		if s.GPUPowerW <= 0 {
			t.Errorf("%s has no GPU power", n)
		}
		if s.ActiveCores != 1 {
			t.Errorf("%s active cores = %d, want 1 (busy-wait)", n, s.ActiveCores)
		}
	}
}

func TestHWUncoreCurvesMatchPaperSettlingPoints(t *testing.T) {
	// At nominal core ratio the heuristic settles where Tables IV/VI
	// report for the no-policy runs.
	cases := []struct {
		name string
		core uint64
		want uint64
	}{
		{BTMZC, 24, 24},  // 2.39 reported, max modulo bias
		{DGEMM, 22, 20},  // AVX512 licence drags uncore to ~2.0
		{BTCUDA, 26, 24}, // turbo busy-wait keeps uncore up
		{BTCUDA, 23, 15}, // ME-lowered core collapses it (1.51)
		{LUCUDA, 20, 24}, // heuristic stuck high: the paper's bad case
		{GromacsII, 23, 14},
		{GromacsI, 23, 20},
		{HPCG, 18, 24},
	}
	for _, c := range cases {
		s, err := Lookup(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.HWUncore.Target(c.core); got != c.want {
			t.Errorf("%s curve(%d) = %d, want %d", c.name, c.core, got, c.want)
		}
	}
}

func TestCalibrateErrorsPropagate(t *testing.T) {
	s, err := Lookup(BTMZC)
	if err != nil {
		t.Fatal(err)
	}
	s.DefaultSegment.TargetPowerW = 10 // below static power
	if _, err := s.Calibrate(); err == nil {
		t.Error("expected calibration error for impossible power target")
	}
	s2, _ := Lookup(BTMZC)
	s2.HWUncore = uncore.Fixed(5) // below hardware window: must clamp, not fail
	c, err := s2.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	if c.NominalOp.UncoreRatio != s2.Platform.Machine.CPU.UncoreMinRatio {
		t.Errorf("uncore ratio = %d, want clamped to %d",
			c.NominalOp.UncoreRatio, s2.Platform.Machine.CPU.UncoreMinRatio)
	}
}

// TestPlatformByName pins the single name list: every listed name
// resolves to the platform carrying it, the empty name is the paper's
// SD530, and an unlisted name errors with the whole list — the text
// every command's -platform help and error are generated from.
func TestPlatformByName(t *testing.T) {
	names := PlatformNames()
	if len(names) != 3 {
		t.Fatalf("PlatformNames() = %v, want the three catalogue platforms", names)
	}
	for _, name := range names {
		pl, err := PlatformByName(name)
		if err != nil {
			t.Errorf("listed platform %q does not resolve: %v", name, err)
		} else if pl.Name != name {
			t.Errorf("PlatformByName(%q) returned %q", name, pl.Name)
		}
	}
	if pl, err := PlatformByName(""); err != nil || pl.Name != "SD530" {
		t.Errorf(`PlatformByName("") = %q, %v; want SD530`, pl.Name, err)
	}
	_, err := PlatformByName("Cray")
	if err == nil {
		t.Fatal("unlisted platform resolved")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}
