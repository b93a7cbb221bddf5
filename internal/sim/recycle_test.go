package sim

import (
	"math"
	"reflect"
	"testing"

	"goear/internal/policy"
	"goear/internal/workload"
)

// runOn re-inits n for one run and returns its result, as runNode does
// minus the pool.
func runOn(t *testing.T, n *node, cal workload.Calibrated, nodeID int, opt Options) NodeResult {
	t.Helper()
	err := n.init(cal, nodeID, opt)
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
	return r
}

// TestRecycledNodeRunDoesNotAllocate: a node re-inited for the same
// workload and options keeps its whole EARL stack — library, Dynais
// windows, policy and its prediction table — so a run costs no
// allocation at all. The node is reused directly, not through nodePool
// (see TestRunAllocationsIndependentOfLength).
func TestRecycledNodeRunDoesNotAllocate(t *testing.T) {
	cal := calibrated(t, workload.BTMZD)
	opt := Options{Policy: policy.MinEnergyEUFS, Model: platformModel(t, cal.Platform), Seed: 1}.WithDefaults()
	n := new(node)
	first := runOn(t, n, cal, 0, opt)
	if first.Signatures < 10 || !first.LoopDetected {
		t.Fatalf("%d signatures, loop %v: the run does not exercise EARL", first.Signatures, first.LoopDetected)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if r := runOn(t, n, cal, 0, opt); r.Signatures != first.Signatures {
			t.Fatalf("recycled run: %d signatures, first run %d", r.Signatures, first.Signatures)
		}
	})
	if allocs != 0 {
		t.Errorf("a recycled node run allocates %v times", allocs)
	}
}

// TestRecycledNodeMatchesFresh walks one node through a CPU workload
// twice under one policy, a CUDA kernel on another platform under
// another policy, a run with no policy, and the first workload again
// with the decision log on. Every result equals a new node's: nothing
// the renewed library or policy keeps leaks into the next run.
func TestRecycledNodeMatchesFresh(t *testing.T) {
	bt := calibrated(t, workload.BTMZD)
	cuda := calibrated(t, workload.LUCUDA)
	btModel, cudaModel := platformModel(t, bt.Platform), platformModel(t, cuda.Platform)
	n := new(node)
	for i, c := range []struct {
		cal workload.Calibrated
		opt Options
	}{
		{bt, Options{Policy: policy.MinEnergyEUFS, Model: btModel, Seed: 3}},
		{bt, Options{Policy: policy.MinEnergyEUFS, Model: btModel, Seed: 5}},
		{cuda, Options{Policy: policy.MinTime, Model: cudaModel, Seed: 3}},
		{bt, Options{Policy: "none", Seed: 4}},
		{bt, Options{Policy: policy.MinEnergyEUFS, Model: btModel, Seed: 3, DecisionLog: true}},
	} {
		opt := c.opt.WithDefaults()
		got := runOn(t, n, c.cal, 1, opt)
		want := runOn(t, new(node), c.cal, 1, opt)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d (%s, %s): recycled node differs from a new one:\n got %+v\nwant %+v",
				i, c.cal.Name, opt.Policy, got, want)
		}
		if opt.DecisionLog && len(got.Decisions) == 0 {
			t.Errorf("run %d: decision log on, no decisions", i)
		}
	}
}
