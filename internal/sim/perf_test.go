package sim

import (
	"math"
	"reflect"
	"testing"

	"goear/internal/eargm"
	"goear/internal/policy"
	"goear/internal/telemetry"
	"goear/internal/workload"
)

// TestExplicitZeroThresholds: a zero threshold is the unset one and
// resolves to the paper's defaults, and a set one is kept.
func TestExplicitZeroThresholds(t *testing.T) {
	d := Options{CPUTh: 0, UncTh: 0}.WithDefaults()
	if d.CPUTh != policy.DefaultCPUPolicyTh || d.UncTh != policy.DefaultUncPolicyTh {
		t.Errorf("zero thresholds resolved to (%v, %v), want (%v, %v)",
			d.CPUTh, d.UncTh, policy.DefaultCPUPolicyTh, policy.DefaultUncPolicyTh)
	}
	s := Options{CPUTh: 0.03, UncTh: 0.01}.WithDefaults()
	if s.CPUTh != 0.03 || s.UncTh != 0.01 {
		t.Errorf("set thresholds resolved to (%v, %v), want (0.03, 0.01)", s.CPUTh, s.UncTh)
	}
}

// TestWorkersByteIdentical is the race-detector stress test of the
// buffer-reuse paths: RunAveraged over a multi-node workload must yield
// byte-identical Results at every worker count. Run under -race this
// also exercises the pooled node state concurrently.
func TestWorkersByteIdentical(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	cal.Nodes = 4 // fan the per-run node loop out too
	m := platformModel(t, cal.Platform)

	var ref Result
	for i, workers := range []int{1, 4, 16} {
		opt := Options{Policy: "min_energy_eufs", Model: m, Seed: 7, Workers: workers}
		r, err := RunAveraged(cal, opt, 4)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			ref = r
			continue
		}
		if !reflect.DeepEqual(ref, r) {
			t.Errorf("workers=%d result differs from workers=1", workers)
		}
	}
}

// TestRunAllocationsIndependentOfLength guards the event path end to
// end: a node running an MPI code under a policy allocates what building
// it costs (sockets, meters, policy, EARL instance, the detector windows
// at the first event) and nothing per MPI event, iteration or signature
// — a run four times as long costs exactly the same. Nodes are built
// directly rather than drawn from nodePool, whose hit rate is not
// deterministic under the race detector.
func TestRunAllocationsIndependentOfLength(t *testing.T) {
	short := calibrated(t, workload.BTMZD) // 8 MPI events per iteration
	long := short
	long.Segs = append([]workload.CalSegment(nil), short.Segs...)
	long.Segs[0].Iterations *= 4
	opt := Options{Policy: "min_energy_eufs", Model: platformModel(t, short.Platform), Seed: 1}.WithDefaults()

	var sigs [2]int
	var allocs [2]float64
	for i, cal := range []workload.Calibrated{short, long} {
		allocs[i] = testing.AllocsPerRun(5, func() {
			n, err := newNode(cal, 0, opt)
			if err == nil {
				err = n.runUntil(math.Inf(1))
			}
			if err != nil {
				t.Fatal(err)
			}
			r, err := n.result()
			if err != nil {
				t.Fatal(err)
			}
			sigs[i] = r.Signatures
		})
	}
	if sigs[0] < 10 || sigs[1] < 3*sigs[0] {
		t.Fatalf("signatures %v: the long run is not longer", sigs)
	}
	if allocs[1] != allocs[0] {
		t.Errorf("allocations depend on run length: %v for %d signatures, %v for %d",
			allocs[0], sigs[0], allocs[1], sigs[1])
	}
	t.Logf("%v allocations per node run (%d and %d signatures)", allocs[0], sigs[0], sigs[1])
}

// TestCoordinatedNodeAllocations pins what one more node costs a
// coordinated run, (A(2n) − A(n))/n allocations at n = 4: the node's own
// state — its struct, socket slots, MSR file pointers, noise source,
// RAPL carries and EARL stack. Operating points are evaluated into the
// batch's table, so a node adds no evaluation storage. Workers is 1, so
// no goroutine is started. Each count is the least of five runs: now and
// then the runtime allocates during one (a full go test ./... once read
// 11.75 a node from three-run averages).
func TestCoordinatedNodeAllocations(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	opt := Options{Policy: policy.MinEnergyEUFS, Model: platformModel(t, cal.Platform), Seed: 3, Workers: 1}
	allocs := func(nodes int) float64 {
		c := cal
		c.Nodes = nodes
		least := math.Inf(1)
		for range 5 {
			least = min(least, testing.AllocsPerRun(1, func() {
				gm, err := eargm.New(eargm.Config{BudgetW: 300 * float64(nodes), MaxCapPstate: 8})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := RunCoordinated(c, opt, gm); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	const n = 4
	if per := (allocs(2*n) - allocs(n)) / n; per != 12 {
		t.Errorf("one more node allocates %v times in a coordinated run, want 12", per)
	}
}

// TestTickAllocations: a node's step — tick, perf evaluation, meters,
// controller, EARL — allocates nothing, without a telemetry set or with
// one (per-step tallies are node-local until flushTel), and neither does
// a tick of a settled 1,024-node batch, whose nodes advance by armed
// replay.
func TestTickAllocations(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	opt := Options{Policy: "none", Seed: 1}
	for _, on := range []bool{false, true} {
		o := opt
		if on {
			o.Telemetry = telemetry.NewSet()
		}
		s, err := NewStepper(cal, 0, o)
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			step()
		}
		if n := testing.AllocsPerRun(1000, step); n != 0 || s.Done() {
			t.Errorf("telemetry %v: a node step allocates %v times (done %v)", on, n, s.Done())
		}
	}

	bt, err := NewBatch(cal, opt)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 1024; id++ {
		if _, err := bt.Add(id); err != nil {
			t.Fatal(err)
		}
	}
	tick := func() {
		if err := bt.Tick(0.01); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		tick()
	}
	if n := testing.AllocsPerRun(100, tick); n != 0 || bt.Done() {
		t.Errorf("a settled 1,024-node batch tick allocates %v times (done %v)", n, bt.Done())
	}
}

// TestOneIterationRunAllocations: a one-iteration BT-MZ.C run, built as
// Run builds it on a node it keeps, allocates its Result's node slice
// and nothing else, without a telemetry set or with one; traced, it adds
// the node's trace samples. (Run draws the node from nodePool; this
// keeps it, see TestRunAllocationsIndependentOfLength.)
func TestOneIterationRunAllocations(t *testing.T) {
	spec, err := workload.Lookup(workload.BTMZC)
	if err != nil {
		t.Fatal(err)
	}
	spec.TargetTimeSec = 1.2
	cal, err := spec.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name             string
		trace, telemetry bool
		want             float64
	}{
		{"plain", false, false, 1},
		{"telemetry", false, true, 1},
		{"traced", true, false, 2},
	} {
		opt := Options{Policy: "none", Seed: 1, Trace: c.trace}.WithDefaults()
		if c.telemetry {
			opt.Telemetry = telemetry.NewSet()
		}
		n := new(node)
		var got Result
		run := func() {
			res := Result{Workload: cal.Name, Policy: opt.Policy, Nodes: make([]NodeResult, cal.Nodes)}
			res.Nodes[0] = runOn(t, n, cal, 0, opt)
			n.flushTel()
			res.aggregate()
			got = res
		}
		run()
		if n := testing.AllocsPerRun(100, run); n != c.want {
			t.Errorf("%s: a one-iteration run allocates %v times, want %v", c.name, n, c.want)
		}
		if nr := got.Nodes[0]; nr.TimeSec > 2 || (len(nr.Trace) == 0) == c.trace {
			t.Errorf("%s: a run of %v s with %d trace samples", c.name, nr.TimeSec, len(nr.Trace))
		}
	}
}
