package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"goear/internal/eargm"
	"goear/internal/model"
	"goear/internal/workload"
)

// batchGoldenCase is one coordinated-run configuration whose batch and
// reference stepping paths must agree byte for byte.
type batchGoldenCase struct {
	name    string
	wl      string
	policy  string
	macro   bool
	phases  bool
	budgetW float64 // 0 = loose (manager never caps)
}

func batchGoldenCases() []batchGoldenCase {
	return []batchGoldenCase{
		// Tight budget engages the cap ratchet, exercising the batch
		// disarm path on SetCapRatio; phases exercise the in-place
		// phase-sample pointer.
		{name: "btmz_eufs_capped", wl: workload.BTMZC, policy: "min_energy_eufs", budgetW: 1100, phases: true},
		{name: "btmz_eufs_macro", wl: workload.BTMZC, policy: "min_energy_eufs", macro: true},
		{name: "btmz_none", wl: workload.BTMZC, policy: "none", macro: true, phases: true},
		// Accelerator class: wall-clock paced iterations take the other
		// fast-tick branch.
		{name: "btcuda_eufs", wl: workload.BTCUDA, policy: "min_energy_eufs"},
		{name: "btcuda_none_macro", wl: workload.BTCUDA, policy: "none", macro: true},
	}
}

func (c batchGoldenCase) options(t *testing.T, m *model.Model) Options {
	t.Helper()
	opt := Options{Policy: c.policy, Seed: 11, MacroStep: c.macro, Phases: c.phases}
	if c.policy != "none" {
		opt.Model = m
	}
	return opt
}

func (c batchGoldenCase) manager(t *testing.T) *eargm.Manager {
	t.Helper()
	budget := c.budgetW
	if budget == 0 {
		budget = 1e6
	}
	gm, err := eargm.New(eargm.Config{BudgetW: budget, MaxCapPstate: 8, IntervalSec: 5})
	if err != nil {
		t.Fatal(err)
	}
	return gm
}

// TestBatchMatchesReferenceByteIdentical pins the tentpole invariant:
// batch (struct-of-arrays) stepping produces byte-identical coordinated
// results to the per-node reference path, at every worker (and so
// batch) count, with and without macro stepping, capped and uncapped, for both
// workload classes.
func TestBatchMatchesReferenceByteIdentical(t *testing.T) {
	for _, c := range batchGoldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cal := calibrated(t, c.wl)
			m := platformModel(t, cal.Platform)

			refOpt := c.options(t, m)
			refOpt.ReferenceStep = true
			refOpt.Workers = 1
			ref, err := RunCoordinated(cal, refOpt, c.manager(t))
			if err != nil {
				t.Fatal(err)
			}

			// One batch kernel per worker: 1, 2 and 4 partitions.
			for _, workers := range []int{1, 2, 4} {
				opt := c.options(t, m)
				opt.Workers = workers
				got, err := RunCoordinated(cal, opt, c.manager(t))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("workers=%d: batch result differs from reference\n got: %+v\nwant: %+v",
						workers, got, ref)
				}
			}
		})
	}
}

// TestCoordinatedMacroMatchesExactWithinTolerance checks that the
// barrier-bounded macro fast-forward keeps coordinated runs within the
// same tolerance macro stepping guarantees for free runs, with the
// policy trajectory (decisions, final operating point) exactly equal.
func TestCoordinatedMacroMatchesExactWithinTolerance(t *testing.T) {
	const relTol = 1e-3
	for _, wl := range []string{workload.BTMZC, workload.BTCUDA} {
		for _, pol := range []string{"none", "min_energy_eufs"} {
			cal := calibrated(t, wl)
			m := platformModel(t, cal.Platform)
			opt := Options{Policy: pol, Seed: 7}
			if pol != "none" {
				opt.Model = m
			}
			gmFor := func() *eargm.Manager {
				gm, err := eargm.New(eargm.Config{BudgetW: 1e6, MaxCapPstate: 8, IntervalSec: 5})
				if err != nil {
					t.Fatal(err)
				}
				return gm
			}
			exact, err := RunCoordinated(cal, opt, gmFor())
			if err != nil {
				t.Fatal(err)
			}
			opt.MacroStep = true
			fast, err := RunCoordinated(cal, opt, gmFor())
			if err != nil {
				t.Fatal(err)
			}
			close := func(name string, a, b float64) {
				t.Helper()
				if b == 0 {
					if a != 0 {
						t.Errorf("%s/%s %s: %g vs 0", cal.Name, pol, name, a)
					}
					return
				}
				if d := (a - b) / b; d > relTol || d < -relTol {
					t.Errorf("%s/%s %s: macro %g vs exact %g (rel %g)", cal.Name, pol, name, a, b, d)
				}
			}
			close("TimeSec", fast.TimeSec, exact.TimeSec)
			close("EnergyJ", fast.EnergyJ, exact.EnergyJ)
			close("AvgPowerW", fast.AvgPowerW, exact.AvgPowerW)
			close("AvgCPUGHz", fast.AvgCPUGHz, exact.AvgCPUGHz)
			close("AvgIMCGHz", fast.AvgIMCGHz, exact.AvgIMCGHz)
			for i := range exact.Nodes {
				e, f := exact.Nodes[i], fast.Nodes[i]
				if f.FinalCPUPstate != e.FinalCPUPstate || f.FinalUncoreMax != e.FinalUncoreMax {
					t.Errorf("%s/%s node %d: final op point (%d,%d) vs (%d,%d)", cal.Name, pol, i,
						f.FinalCPUPstate, f.FinalUncoreMax, e.FinalCPUPstate, e.FinalUncoreMax)
				}
				if f.Signatures != e.Signatures || f.PolicyApplies != e.PolicyApplies {
					t.Errorf("%s/%s node %d: signatures/applies %d/%d vs %d/%d", cal.Name, pol, i,
						f.Signatures, f.PolicyApplies, e.Signatures, e.PolicyApplies)
				}
			}
		}
	}
}

// TestBatchAddRemoveRecycle drives a randomized add/remove/step sequence
// and checks the dense-index invariants swap-removal must maintain: the
// id table tracks a model exactly, removed slots are recycled, and the
// surviving nodes still step and report results.
func TestBatchAddRemoveRecycle(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	b, err := NewBatch(cal, Options{Policy: "none", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	var ids []int // model of the batch's dense id table
	nextID := 0
	add := func() {
		i, err := b.Add(nextID)
		if err != nil {
			t.Fatal(err)
		}
		if i != len(ids) {
			t.Fatalf("Add returned index %d, want %d", i, len(ids))
		}
		ids = append(ids, nextID)
		nextID++
	}
	remove := func(i int) {
		if err := b.Remove(i); err != nil {
			t.Fatal(err)
		}
		ids[i] = ids[len(ids)-1]
		ids = ids[:len(ids)-1]
	}
	check := func() {
		t.Helper()
		if b.Len() != len(ids) {
			t.Fatalf("Len() = %d, want %d", b.Len(), len(ids))
		}
		for i, id := range ids {
			if got := b.NodeID(i); got != id {
				t.Fatalf("NodeID(%d) = %d, want %d", i, got, id)
			}
		}
	}

	for i := 0; i < 8; i++ {
		add()
	}
	check()
	clock := 0.0
	for op := 0; op < 60; op++ {
		switch {
		case len(ids) == 0 || rng.Intn(3) == 0:
			add()
		case rng.Intn(2) == 0:
			remove(rng.Intn(len(ids)))
		default:
			clock += 5
			if err := b.StepUntil(clock); err != nil {
				t.Fatal(err)
			}
		}
		check()
	}
	if len(ids) == 0 {
		add()
	}
	// Every survivor must have advanced to the batch clock (or be done)
	// and produce a well-formed result.
	clock += 5
	if err := b.StepUntil(clock); err != nil {
		t.Fatal(err)
	}
	rs, err := b.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(ids) {
		t.Fatalf("Results len %d, want %d", len(rs), len(ids))
	}
	for i, r := range rs {
		if r.TimeSec <= 0 || r.EnergyJ <= 0 {
			t.Errorf("node %d: empty result %+v", ids[i], r)
		}
	}
	if err := b.Remove(len(ids)); err == nil {
		t.Error("Remove past end: expected error")
	}
	if !b.Done() {
		// Not all nodes are done mid-run; Done must say so.
		_ = b.Done()
	}
}
