package fed

import (
	"goear/internal/eardbd"
	"goear/internal/telemetry"
)

// Metric names.
const (
	metricFedQueries   = "goear_eardbd_fed_queries_total"
	metricFedFanout    = "goear_eardbd_fed_fanout_total"
	metricFedDials     = "goear_eardbd_fed_dials_total"
	metricFedShards    = "goear_eardbd_fed_shards"
	metricFedCache     = "goear_eardbd_fed_cache_total"
	metricFedCacheHitR = "goear_eardbd_fed_cache_hit_ratio"
	metricFedRefolds   = "goear_eardbd_fed_refolds_total"
	metricFedLatency   = "goear_eardbd_fed_latency_seconds"
)

// Span kinds.
const (
	spanFedQuery  = "fed.query"
	spanFedFanout = "fed.fanout"
	spanFedMerge  = "fed.merge"
)

// How a fan-out got its shard connection: the result label of
// goear_eardbd_fed_dials_total.
const (
	dialNew    = "new"    // nothing parked: dialled
	dialReused = "reused" // took a parked connection
	dialRedial = "redial" // the reused connection failed: dialled for the one retry
)

// rootTel is a root's pre-resolved instrument bundle; nil fields
// (telemetry absent) make every use a nil-receiver no-op. Fan-out
// outcomes are labeled per shard so a flapping island is visible as
// its own series.
type rootTel struct {
	queries   *telemetry.Counter
	fanoutVec *telemetry.CounterVec
	dialVec   *telemetry.CounterVec
	shards    *telemetry.Gauge
	cacheHit  *telemetry.Counter // result="hit"
	cacheMiss *telemetry.Counter // result="miss"
	cacheHitR *telemetry.Gauge
	latQuery  *telemetry.Histogram // op="query": serving a merged query
	latFanout *telemetry.Histogram // op="fanout": one shard round trip
	// refolds[i][delta] counts the misses that rebuilt part partNames[i],
	// from the shards' changes (delta) or their full dumps.
	refolds [len(partNames)][2]*telemetry.Counter
}

func newRootTel(s *telemetry.Set) rootTel {
	r := s.Reg()
	cache := r.CounterVec(metricFedCache, "merged-snapshot lookups by cache outcome", "result")
	latency := r.HistogramVec(metricFedLatency, "federation root latency by wire op, seconds",
		eardbd.LatencyBounds(), "op")
	t := rootTel{
		queries:   r.Counter(metricFedQueries, "snapshot queries served by the federation root"),
		fanoutVec: r.CounterVec(metricFedFanout, "shard fan-out queries by shard and result", "shard", "result"),
		dialVec:   r.CounterVec(metricFedDials, "shard connections taken for a fan-out, by shard and how (new, reused, redial)", "shard", "result"),
		shards:    r.Gauge(metricFedShards, "shards configured on the federation root"),
		cacheHit:  cache.With("hit"),
		cacheMiss: cache.With("miss"),
		cacheHitR: r.Gauge(metricFedCacheHitR, "fraction of merged-snapshot lookups served from cache"),
		latQuery:  latency.With("query"),
		latFanout: latency.With("fanout"),
	}
	refolds := r.CounterVec(metricFedRefolds,
		"merged-view parts rebuilt on a cache miss, by part and how: from the moved shards' changes (delta) or every shard's dump (full)",
		"part", "how")
	for i, name := range partNames {
		t.refolds[i] = [2]*telemetry.Counter{refolds.With(name, "full"), refolds.With(name, "delta")}
	}
	return t
}

// refold counts the parts a cache miss rebuilt, and how.
func (t rootTel) refold(p parts, delta bool) {
	how := 0
	if delta {
		how = 1
	}
	for i, c := range t.refolds {
		if p&(1<<i) != 0 {
			c[how].Inc()
		}
	}
}

// LatencySLO registers the root's per-op latency histograms with an
// SLO summary; targets are p99 seconds, zero means "report only".
func (r *Root) LatencySLO(slo *telemetry.SLO, queryTargetP99, fanoutTargetP99 float64) {
	if r == nil {
		return
	}
	slo.Register("query", r.tel.latQuery, queryTargetP99)
	slo.Register("fanout", r.tel.latFanout, fanoutTargetP99)
}

// fanout counts one shard query outcome.
func (t rootTel) fanout(shard string, ok bool) {
	if t.fanoutVec == nil {
		return
	}
	result := "ok"
	if !ok {
		result = "error"
	}
	t.fanoutVec.With(shard, result).Inc()
}

// dial counts how one fan-out got its connection.
func (t rootTel) dial(shard, how string) {
	if t.dialVec != nil {
		t.dialVec.With(shard, how).Inc()
	}
}
