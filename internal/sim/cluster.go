package sim

import (
	"fmt"
	"math"

	"goear/internal/par"
	"goear/internal/workload"
)

// PowerManager is the cluster-level energy-control hook of a
// coordinated run: EAR's global manager (EARGM) implements it. At every
// interval it receives each node's average DC power over the last
// interval (0 for nodes whose job already ended) and returns the core
// pstate ceiling it wants enforced (0 = uncapped).
type PowerManager interface {
	// Interval is the manager's control period in seconds: finite and
	// no shorter than the 10 ms simulation step, or RunCoordinated
	// refuses the run.
	Interval() float64
	// Update processes one interval's readings and returns the pstate
	// cap to enforce on every node (0 releases the cap).
	Update(now float64, nodePowerW []float64) (capPstate int, err error)
}

// RunCoordinated executes the workload on all its nodes in lock-step
// time slices under a cluster power manager, the way EAR's node daemons
// advance jobs while EARGM enforces a site power budget over them.
//
// Nodes are partitioned into one Batch per worker (contiguous node-id
// ranges, never more batches than nodes) and every interval advances
// each batch to the barrier: armed nodes replay their settled tick,
// the rest step (Options.ReferenceStep makes every node step). Nodes
// are fully independent between barriers and the replay is
// bit-identical to stepping, so the result is byte-identical at any
// Workers count and under ReferenceStep.
func RunCoordinated(cal workload.Calibrated, opt Options, gm PowerManager) (Result, error) {
	opt = opt.WithDefaults()
	if gm == nil {
		return Result{}, fmt.Errorf("sim: coordinated run needs a power manager")
	}
	// NaN passes a plain <= 0 test and never lets a node advance; +Inf
	// runs every node to the end in one interval and reports 0 W. An
	// interval below the step pays a barrier for every node more than
	// once a tick, and tick += interval stalls once tick is 2^53
	// intervals long.
	interval := gm.Interval()
	if !(interval >= stepSec) || math.IsInf(interval, 1) {
		return Result{}, fmt.Errorf("sim: power manager interval %v must be finite and at least the %g s step", interval, stepSec)
	}
	if err := checkModel(cal, opt); err != nil {
		return Result{}, err
	}
	batches, err := partition(cal, opt)
	if err != nil {
		return Result{}, err
	}
	return coordinate(cal, opt, gm, interval, batches)
}

// partition builds one Batch per worker, never more than nodes:
// contiguous node-id ranges, so global node order is batch order
// followed by in-batch order.
func partition(cal workload.Calibrated, opt Options) ([]*Batch, error) {
	nb := min(opt.workers(), cal.Nodes)
	batches := make([]*Batch, nb)
	for s := range batches {
		b, err := NewBatch(cal, opt)
		if err != nil {
			return nil, err
		}
		lo, hi := s*cal.Nodes/nb, (s+1)*cal.Nodes/nb
		b.nodes = make([]*node, 0, hi-lo)
		b.ids = make([]int, 0, hi-lo)
		for id := lo; id < hi; id++ {
			if _, err := b.Add(id); err != nil {
				return nil, fmt.Errorf("sim: %s node %d: %w", cal.Name, id, err)
			}
		}
		batches[s] = b
	}
	return batches, nil
}

// coordinate advances the batches interval by interval under gm until
// every node has finished, then assembles the run's result.
func coordinate(cal workload.Calibrated, opt Options, gm PowerManager, interval float64, batches []*Batch) (Result, error) {
	prevE := make([]float64, cal.Nodes)
	powers := make([]float64, cal.Nodes)
	curCap := 0
	for tick := interval; ; tick += interval {
		// Batches share no state, so each interval's lock-step advance
		// fans out across workers; the manager only runs once every
		// node has reached the barrier, exactly as in the sequential
		// schedule.
		err := par.ForEach(opt.workers(), len(batches), func(s int) error {
			return batches[s].stepUntil(tick)
		})
		if err != nil {
			return Result{}, err
		}
		alive := false
		idx := 0
		for _, b := range batches {
			if !b.Done() {
				alive = true
			}
			for i := range b.nodes {
				e := b.trueEnergy(i)
				powers[idx] = (e - prevE[idx]) / interval
				prevE[idx] = e
				idx++
			}
		}
		cap, err := gm.Update(tick, powers)
		if err != nil {
			return Result{}, err
		}
		if cap != curCap {
			curCap = cap
			ratio := uint64(0)
			if cap != 0 {
				ratio, err = cal.Platform.Machine.CPU.PstateRatio(cap)
				if err != nil {
					return Result{}, err
				}
			}
			for _, b := range batches {
				b.setCapRatio(ratio)
			}
		}
		if !alive {
			break
		}
	}

	res := Result{Workload: cal.Name, Policy: opt.Policy}
	res.Nodes = make([]NodeResult, 0, cal.Nodes)
	for _, b := range batches {
		nrs, err := b.results()
		if err != nil {
			return Result{}, err
		}
		res.Nodes = append(res.Nodes, nrs...)
	}
	res.aggregate()
	return res, nil
}
