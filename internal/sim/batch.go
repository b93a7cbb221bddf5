package sim

import (
	"fmt"

	"goear/internal/workload"
)

// Batch advances many simulated nodes of one calibrated workload in
// lock step: the slice RunCoordinated's intervals are made of, and the
// handle benchmarks sweep one tick at a time. It holds the nodes, a
// clock and one evaluation table — each node carries its own stepping
// state (replay.go), which persists between calls, so the call
// granularity (one tick, one EARGM interval, anything between) does not
// change the results. It does change the cost per node-tick: each call
// moves every armed node by one span, whose cost hardly depends on its
// length, so a sweep of one tick per call pays a span's cost every tick.
//
// A Batch is stepped from one goroutine at a time: RunCoordinated hands
// each batch to one worker per interval and joins them at the barrier.
// That is why its nodes share evals without a lock.
type Batch struct {
	cal workload.Calibrated
	opt Options

	nodes []*node
	ids   []int

	// evals is every admitted node's evaluation table: the nodes run
	// the same calibrated workload, so each operating point is
	// evaluated once per batch, not once per node.
	evals evalTable

	// clock accumulates Tick deltas; stepUntil never rewinds it.
	clock float64
}

// NewBatch builds an empty batch for one calibrated workload. Options
// are defaulted exactly as Run does; nodes join with Add.
func NewBatch(cal workload.Calibrated, opt Options) (*Batch, error) {
	opt = opt.WithDefaults()
	if err := checkModel(cal, opt); err != nil {
		return nil, err
	}
	return &Batch{cal: cal, opt: opt}, nil
}

// Add admits one node (seeded by its workload node id) and returns its
// index.
func (b *Batch) Add(nodeID int) (int, error) {
	n, err := newNode(b.cal, nodeID, b.opt)
	if err != nil {
		return 0, err
	}
	n.evals = &b.evals
	b.nodes = append(b.nodes, n)
	b.ids = append(b.ids, nodeID)
	return len(b.nodes) - 1, nil
}

// Tick advances the batch clock by dt and steps every resident node to
// it.
func (b *Batch) Tick(dt float64) error {
	return b.stepUntil(b.clock + dt)
}

// stepUntil advances every resident node to (at least) simulated time
// t or to completion.
func (b *Batch) stepUntil(t float64) error {
	if t > b.clock {
		b.clock = t
	}
	for i, n := range b.nodes {
		if err := n.runUntil(t); err != nil {
			return fmt.Errorf("sim: %s node %d: %w", b.cal.Name, b.ids[i], err)
		}
	}
	return nil
}

// Done reports whether every resident node has finished its workload.
func (b *Batch) Done() bool {
	for _, n := range b.nodes {
		if !n.done {
			return false
		}
	}
	return true
}

// trueEnergy returns the exact DC energy integral of the node at index
// i (the simulator-side Node Manager reading).
func (b *Batch) trueEnergy(i int) float64 { return b.nodes[i].inm.TrueEnergy() }

// setCapRatio applies (or with 0 releases) the node-daemon core-ratio
// ceiling on every resident node.
func (b *Batch) setCapRatio(r uint64) {
	for _, n := range b.nodes {
		n.setCapRatio(r)
	}
}

// results assembles every resident node's outcome in index order and
// adds each node's step tallies to its telemetry counters.
func (b *Batch) results() ([]NodeResult, error) {
	out := make([]NodeResult, len(b.nodes))
	for i, n := range b.nodes {
		nr, err := n.result()
		if err != nil {
			return nil, fmt.Errorf("sim: %s node %d: %w", b.cal.Name, b.ids[i], err)
		}
		n.flushTel()
		out[i] = nr
	}
	return out, nil
}
