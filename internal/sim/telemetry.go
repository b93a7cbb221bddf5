package sim

import (
	"sync/atomic"

	"goear/internal/telemetry"
)

// Metric names (package-level constants per the goearvet telemetry
// analyzer).
const (
	metricSimSteps      = "goear_sim_steps_total"
	metricSimReplayed   = "goear_sim_replayed_steps_total"
	metricSimMPIEvents  = "goear_sim_mpi_events_total"
	metricSimSignatures = "goear_sim_signatures_total"
	metricSimNodeRuns   = "goear_sim_node_runs_total"
	metricSimRecycles   = "goear_sim_pool_recycles_total"
)

// simTel is the package instrument bundle. The pointer stays nil until
// global telemetry is enabled; flushTel loads it once per node run and
// adds the node's plain step tallies in one Add each, so the per-step
// hot path carries no atomics for telemetry. steps − replayed is the
// number of ticks that took the slow path; mpiEvents and signatures say
// what those slow ticks did at their iteration boundaries (events
// delivered to EARL per slow step, signatures per run).
type simTel struct {
	steps      *telemetry.Counter
	replayed   *telemetry.Counter
	mpiEvents  *telemetry.Counter
	signatures *telemetry.Counter
	runs       *telemetry.Counter
	recycles   *telemetry.Counter
}

var tel atomic.Pointer[simTel]

func init() {
	telemetry.OnEnable(func(s *telemetry.Set) {
		if s == nil {
			tel.Store(nil)
			return
		}
		r := s.Registry
		tel.Store(&simTel{
			steps:      r.Counter(metricSimSteps, "simulation steps executed"),
			replayed:   r.Counter(metricSimReplayed, "simulation steps advanced by armed replay"),
			mpiEvents:  r.Counter(metricSimMPIEvents, "MPI events delivered to EARL at iteration boundaries"),
			signatures: r.Counter(metricSimSignatures, "EARL signatures computed"),
			runs:       r.Counter(metricSimNodeRuns, "node runs completed"),
			recycles:   r.Counter(metricSimRecycles, "node allocations recycled from the pool"),
		})
	})
}

// flushTel adds the node's step tallies to the telemetry counters and
// zeroes them, so a run is counted once however often its results are
// read. Run and Batch.results call it; a Stepper never reports.
func (n *node) flushTel() {
	tl := tel.Load()
	if tl == nil || n.stepCount == 0 {
		return
	}
	tl.runs.Inc()
	tl.steps.Add(n.stepCount)
	tl.replayed.Add(n.replayed)
	tl.mpiEvents.Add(n.mpiCount)
	if n.lib != nil {
		tl.signatures.Add(uint64(n.lib.Signatures()))
	}
	n.stepCount, n.replayed, n.mpiCount = 0, 0, 0
}
