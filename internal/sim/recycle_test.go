package sim

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"goear/internal/alloctest"
	"goear/internal/policy"
	"goear/internal/telemetry"
	"goear/internal/workload"
)

// runOn re-inits n for one run and returns its result, as runNode does
// minus the pool.
func runOn(t *testing.T, n *node, cal workload.Calibrated, nodeID int, opt Options) NodeResult {
	t.Helper()
	err := n.init(&cal, nodeID, opt)
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

// TestRecycledTraceIsACopy: a pooled node keeps its trace buffer from
// run to run and hands each result an exact-size copy, so a second
// traced run through the same node leaves the first run's trace as it
// was.
func TestRecycledTraceIsACopy(t *testing.T) {
	alloctest.Hold(t)
	spec, err := workload.Lookup(workload.BTMZC)
	if err != nil {
		t.Fatal(err)
	}
	spec.TargetTimeSec = 12
	cal, err := spec.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewSet()
	recycles := newSimTel(set).recycles
	opt := Options{Policy: "none", Seed: 1, Trace: true, Telemetry: set}.WithDefaults()
	first, err := runNode(&cal, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	kept := slices.Clone(first.Trace)
	before := recycles.Value()
	opt.Seed = 2
	second, err := runNode(&cal, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if recycles.Value() != before+1 {
		t.Fatal("the second run did not get the first run's node back")
	}
	for i, r := range []NodeResult{first, second} {
		if len(r.Trace) < 2 || len(r.Trace) != cap(r.Trace) {
			t.Errorf("run %d: trace of %d points in room for %d, want an exact copy of several", i, len(r.Trace), cap(r.Trace))
		}
	}
	if !reflect.DeepEqual(first.Trace, kept) {
		t.Error("the second run changed the first run's trace")
	}
	if reflect.DeepEqual(kept, second.Trace) {
		t.Error("two seeds traced alike: the check above shows nothing")
	}
}

// TestWarmRunAllocations pins what a warm serial Run of a 4-node
// workload allocates: its node results (1). Run reads its calibration
// in place when the nodes run in order; handing the parallel dispatch's
// pointer to that path too moved the whole calibration to the heap on
// every call (2).
func TestWarmRunAllocations(t *testing.T) {
	alloctest.Hold(t)
	cal := motivation(t)
	opt := Options{Policy: policy.MinEnergyEUFS, Model: platformModel(t, cal.Platform), Seed: 1, Workers: 1}
	run := func() {
		if _, err := Run(cal, opt); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(5, run); n != 1 {
		t.Errorf("a warm serial 4-node Run: %v allocations, want 1", n)
	}
}

// parDispatchAllocs is what one parallel par.ForEach dispatch
// allocates: its closure, a fanOut and a goroutine.
const parDispatchAllocs = 3

// TestWarmParallelRunAveragedAllocations: a warm averaged run of a
// 4-node workload on two workers allocates what the same run on one
// worker does plus its dispatches and nothing else: the calibration is
// read in place. A copy of it on the heap per dispatch added 4. Two
// workers over three seeds split (par.Split) into two seeds at a time
// whose nodes run in order, so the one dispatch is the seeds'. The
// exact count is pinned too: 7, the runs' results (1), the three runs'
// node results (3) and the dispatch (3). It was 16 while each run also
// fanned its nodes out over both workers, a dispatch each. The least of
// eight rounds, since MemStats counts the runtime's own allocations
// too.
func TestWarmParallelRunAveragedAllocations(t *testing.T) {
	alloctest.Hold(t)
	cal := motivation(t)
	const runs = 3
	least := func(workers int) uint64 {
		opt := Options{Policy: policy.MinEnergyEUFS, Model: platformModel(t, cal.Platform), Seed: 1, Workers: workers}
		round := func() alloctest.Allocs {
			return alloctest.Count(func() {
				if _, err := RunAveraged(&cal, opt, runs); err != nil {
					t.Fatal(err)
				}
			})
		}
		round()
		return alloctest.Least(8, round).Mallocs
	}
	serial, parallel := least(1), least(2)
	if dispatch := uint64(parDispatchAllocs); parallel > serial+dispatch {
		t.Errorf("a warm averaged 4-node run: %d allocations on two workers, %d on one: %d past the %d its dispatches take",
			parallel, serial, parallel-serial-dispatch, dispatch)
	}
	if parallel != 7 {
		t.Errorf("a warm averaged 4-node run on two workers: %d allocations, want 7", parallel)
	}
}

// motivation is the 4-node motivation workload, shortened to 6 s.
func motivation(t *testing.T) workload.Calibrated {
	t.Helper()
	spec, err := workload.Lookup(workload.BTMZMotiv)
	if err != nil {
		t.Fatal(err)
	}
	spec.TargetTimeSec = 6
	cal, err := spec.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	if cal.Nodes != 4 {
		t.Fatalf("%s calibrates to %d nodes, want 4", cal.Name, cal.Nodes)
	}
	return cal
}
