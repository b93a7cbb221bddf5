package experiments

import "goear/internal/telemetry"

// Metric names.
const (
	metricExpCacheRequests = "goear_experiments_cache_requests_total"
	metricExpCacheComputes = "goear_experiments_cache_computes_total"
)

// cache names one of a Context's three singleflight caches in the
// counted series.
type cache int

const (
	modelCache cache = iota
	calCache
	runCache
	numCaches
)

var cacheLabels = [numCaches]string{"model", "calibration", "run"}

// cacheCounters resolves the request and computation series of cache
// as in set, nil for a nil set. Every cache's series is registered, so a
// scrape lists all three from the first request on.
func cacheCounters(set *telemetry.Set, as cache) (requests, computes *telemetry.Counter) {
	r := set.Reg()
	if r == nil {
		return nil, nil
	}
	req := r.CounterVec(metricExpCacheRequests, "singleflight cache requests by cache", "cache")
	comp := r.CounterVec(metricExpCacheComputes, "singleflight cache computations (misses) by cache", "cache")
	for _, label := range cacheLabels {
		req.With(label)
		comp.With(label)
	}
	return req.With(cacheLabels[as]), comp.With(cacheLabels[as])
}
