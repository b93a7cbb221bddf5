package sim

import (
	"math"
	"reflect"
	"testing"

	"goear/internal/workload"
)

// TestExplicitZeroThresholds is the regression test for the options
// zero-value fix: F(0) must survive defaulting, and nil must still
// resolve to the documented defaults.
func TestExplicitZeroThresholds(t *testing.T) {
	d := Options{}.WithDefaults()
	if *d.CPUTh != 0.05 || *d.UncTh != 0.02 {
		t.Errorf("nil thresholds resolved to (%v, %v), want (0.05, 0.02)", *d.CPUTh, *d.UncTh)
	}
	z := Options{CPUTh: F(0), UncTh: F(0)}.WithDefaults()
	if *z.CPUTh != 0 || *z.UncTh != 0 {
		t.Errorf("explicit zeros resolved to (%v, %v), want (0, 0)", *z.CPUTh, *z.UncTh)
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
