package loadgen

import (
	"goear/internal/telemetry"
)

// Metric names.
const (
	metricLGNodes       = "goear_loadgen_nodes_total"
	metricLGRecords     = "goear_loadgen_records_total"
	metricLGNodeErrors  = "goear_loadgen_node_errors_total"
	metricLGDrainPasses = "goear_loadgen_drain_passes_total"
	metricLGBacklog     = "goear_loadgen_journal_backlog_batches"
)

// genTel is the generator's pre-resolved instrument bundle; nil
// fields (telemetry absent) make every use a nil-receiver no-op.
type genTel struct {
	nodes       *telemetry.Counter
	records     *telemetry.Counter
	nodeErrors  *telemetry.Counter
	drainPasses *telemetry.Counter
	backlog     *telemetry.Gauge
}

func newGenTel(s *telemetry.Set) genTel {
	if s == nil {
		s = telemetry.Default()
	}
	r := s.Reg()
	return genTel{
		nodes:       r.Counter(metricLGNodes, "simulated node reporters completed"),
		records:     r.Counter(metricLGRecords, "job records enqueued by the generator"),
		nodeErrors:  r.Counter(metricLGNodeErrors, "node reporters that hit an unexpected reporting error"),
		drainPasses: r.Counter(metricLGDrainPasses, "journal drain passes run"),
		backlog:     r.Gauge(metricLGBacklog, "spilled batches awaiting drain"),
	}
}
