package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"goear/internal/eargm"
	"goear/internal/model"
	"goear/internal/par"
	"goear/internal/workload"
)

// batchGoldenCase is one coordinated-run configuration whose replayed
// and reference-stepped results must agree byte for byte.
type batchGoldenCase struct {
	name    string
	wl      string
	policy  string
	budgetW float64 // 0 = loose (manager never caps)
}

func batchGoldenCases() []batchGoldenCase {
	return []batchGoldenCase{
		// Tight budget engages the cap ratchet, exercising the disarm
		// on setCapRatio.
		{name: "btmz_eufs_capped", wl: workload.BTMZC, policy: "min_energy_eufs", budgetW: 1100},
		{name: "btmz_eufs", wl: workload.BTMZC, policy: "min_energy_eufs"},
		{name: "btmz_none", wl: workload.BTMZC, policy: "none"},
		// Accelerator class: wall-clock paced iterations take the other
		// replay branch.
		{name: "btcuda_eufs", wl: workload.BTCUDA, policy: "min_energy_eufs"},
		{name: "btcuda_none", wl: workload.BTCUDA, policy: "none"},
	}
}

func (c batchGoldenCase) options(t *testing.T, m *model.Model) Options {
	t.Helper()
	opt := Options{Policy: c.policy, Seed: 11}
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

// TestBatchMatchesReferenceByteIdentical pins the engine's invariant on
// coordinated runs: armed replay produces byte-identical results to
// ReferenceStep's tick-by-tick stepping, at every worker (and so batch)
// count, capped and uncapped, for both workload classes.
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

			// One batch per worker: 1, 2 and 4 partitions.
			for _, workers := range []int{1, 2, 4} {
				opt := c.options(t, m)
				opt.Workers = workers
				got, err := RunCoordinated(cal, opt, c.manager(t))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("workers=%d: replayed result differs from reference\n got: %+v\nwant: %+v",
						workers, got, ref)
				}
			}
		})
	}
}

// driveBatches runs cal's nodes to completion the way RunCoordinated
// does — nb batches of contiguous node ids, 5 s intervals — except
// that sub(b, hi) may first advance each batch to barriers of its own
// choosing inside the interval, and the cap is not a manager's but a
// fixed schedule (on after interval 4, off after interval 12), so the
// only thing that varies between two calls is where runUntil returns.
func driveBatches(t *testing.T, cal workload.Calibrated, opt Options, nb int, capped bool, sub func(b *Batch, hi float64) error) []NodeResult {
	t.Helper()
	batches := make([]*Batch, nb)
	for s := range batches {
		b, err := NewBatch(cal, opt)
		if err != nil {
			t.Fatal(err)
		}
		for id := s * cal.Nodes / nb; id < (s+1)*cal.Nodes/nb; id++ {
			if _, err := b.Add(id); err != nil {
				t.Fatal(err)
			}
		}
		batches[s] = b
	}
	capRatio, err := cal.Platform.Machine.CPU.PstateRatio(6)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; ; k++ {
		hi := 5 * float64(k)
		err := par.ForEach(nb, nb, func(s int) error {
			if err := sub(batches[s], hi); err != nil {
				return err
			}
			return batches[s].stepUntil(hi)
		})
		if err != nil {
			t.Fatal(err)
		}
		alive := false
		for _, b := range batches {
			alive = alive || !b.Done()
			if capped && (k == 4 || k == 12) {
				r := capRatio
				if k == 12 {
					r = 0
				}
				if err := b.setCapRatio(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !alive {
			break
		}
	}
	var out []NodeResult
	for _, b := range batches {
		rs, err := b.results()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rs...)
	}
	return out
}

// TestCallGranularityIndependence pins that armed state persisting
// between calls is invisible: the same nodes advanced by one-tick
// sweeps, by whole intervals and by a seeded random barrier schedule
// yield byte-identical results, equal to ReferenceStep's, capped and
// uncapped, split over 1, 2 and 4 batches.
func TestCallGranularityIndependence(t *testing.T) {
	cal := calibrated(t, workload.BTMZC)
	cal.Nodes = 4
	opt := Options{Policy: "min_energy_eufs", Model: platformModel(t, cal.Platform), Seed: 3}

	whole := func(*Batch, float64) error { return nil }
	ticks := func(b *Batch, hi float64) error {
		// Stop one tick short: accumulated 0.01s may not overshoot hi.
		for b.clock+0.01 < hi {
			if err := b.Tick(0.01); err != nil {
				return err
			}
		}
		return nil
	}
	random := func(b *Batch, hi float64) error {
		// Seeded per (batch, interval), so the schedule does not
		// depend on goroutine interleaving.
		rng := rand.New(rand.NewSource(int64(b.ids[0])*1000 + int64(hi)))
		for at := hi - 5; ; {
			at += rng.Float64() * 2
			if at >= hi {
				return nil
			}
			if err := b.stepUntil(at); err != nil {
				return err
			}
		}
	}

	refOpt := opt
	refOpt.ReferenceStep = true
	if reflect.DeepEqual(driveBatches(t, cal, refOpt, 1, false, whole), driveBatches(t, cal, refOpt, 1, true, whole)) {
		t.Fatal("precondition: the cap schedule changes nothing")
	}
	for _, capped := range []bool{false, true} {
		ref := driveBatches(t, cal, refOpt, 1, capped, whole)
		for _, sched := range []struct {
			name string
			sub  func(*Batch, float64) error
		}{{"ticks", ticks}, {"intervals", whole}, {"random", random}} {
			for _, nb := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("capped=%v/%s/batches=%d", capped, sched.name, nb), func(t *testing.T) {
					got := driveBatches(t, cal, opt, nb, capped, sched.sub)
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("results differ from ReferenceStep\n got: %+v\nwant: %+v", got, ref)
					}
				})
			}
		}
	}
}
