package accounting

import "goear/internal/telemetry"

// Metric names. One family set serves both the shard daemons' stores
// and the federation root's merged store: the registry's get-or-create
// semantics fold co-hosted stores into the same series.
const (
	metricAcctRecords = "goear_accounting_records"
	metricAcctIngest  = "goear_accounting_ingest_total"
	metricAcctQueries = "goear_accounting_queries_total"
	metricAcctPruned  = "goear_accounting_pruned_total"
)

// storeTel is a store's pre-resolved instrument bundle; nil fields
// (telemetry absent) make every use a nil-receiver no-op.
type storeTel struct {
	records   *telemetry.Gauge
	ingAccept *telemetry.Counter // result="accepted"
	ingDup    *telemetry.Counter // result="duplicate"
	ingRepl   *telemetry.Counter // result="replaced"
	queries   *telemetry.Counter
	pruned    *telemetry.Counter
}

func newStoreTel(s *telemetry.Set) storeTel {
	r := s.Reg()
	ingest := r.CounterVec(metricAcctIngest, "job records ingested by outcome", "result")
	return storeTel{
		records:   r.Gauge(metricAcctRecords, "job energy records resident in the store"),
		ingAccept: ingest.With("accepted"),
		ingDup:    ingest.With("duplicate"),
		ingRepl:   ingest.With("replaced"),
		queries:   r.Counter(metricAcctQueries, "job queries served"),
		pruned:    r.Counter(metricAcctPruned, "job records evicted by the retention cap"),
	}
}
