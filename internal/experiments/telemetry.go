package experiments

import (
	"sync/atomic"

	"goear/internal/telemetry"
)

// Metric names (package-level constants per the goearvet telemetry
// analyzer).
const (
	metricExpCacheRequests = "goear_experiments_cache_requests_total"
	metricExpCacheComputes = "goear_experiments_cache_computes_total"
)

// cache names one of a Context's three singleflight caches in the
// mirrored series.
type cache int

const (
	modelCache cache = iota
	calCache
	runCache
	numCaches
)

var cacheLabels = [numCaches]string{"model", "calibration", "run"}

// cacheTel mirrors every context's cache activity into the global
// registry; handles are pre-resolved per cache label so the request
// path never hashes label strings.
type cacheTel struct{ requests, computes *telemetry.Counter }

var tel atomic.Pointer[[numCaches]cacheTel]

func init() {
	telemetry.OnEnable(func(s *telemetry.Set) {
		if s == nil {
			tel.Store(nil)
			return
		}
		r := s.Registry
		req := r.CounterVec(metricExpCacheRequests, "singleflight cache requests by cache", "cache")
		comp := r.CounterVec(metricExpCacheComputes, "singleflight cache computations (misses) by cache", "cache")
		var t [numCaches]cacheTel
		for i, label := range cacheLabels {
			t[i] = cacheTel{req.With(label), comp.With(label)}
		}
		tel.Store(&t)
	})
}
