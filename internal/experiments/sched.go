package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"goear/internal/par"
	"goear/internal/telemetry"
)

// flight is a singleflight cache: the first caller of a key computes
// its value while concurrent callers of the same key block on the same
// computation instead of duplicating it. Completed values (including
// errors, which are deterministic here: bad configurations stay bad)
// are cached for the cache's lifetime. It counts its own requests and
// computations. The zero value is ready to use.
type flight[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V]

	requests, computes telemetry.Counter
}

type call[V any] struct {
	once sync.Once
	done atomic.Bool
	val  V
	err  error
}

// do returns the cached value for key, computing it with fn exactly
// once no matter how many goroutines ask concurrently. The request and
// the computation are counted here and, with global telemetry enabled,
// mirrored into the series labelled as.
func (f *flight[K, V]) do(as cache, key K, fn func() (V, error)) (V, error) {
	f.requests.Inc()
	t := tel.Load()
	if t != nil {
		t[as].requests.Inc()
	}
	f.mu.Lock()
	if f.m == nil {
		f.m = map[K]*call[V]{}
	}
	c, ok := f.m[key]
	if !ok {
		c = &call[V]{}
		f.m[key] = c
	}
	f.mu.Unlock()
	c.once.Do(func() {
		f.computes.Inc()
		if t != nil {
			t[as].computes.Inc()
		}
		c.val, c.err = fn()
		c.done.Store(true)
	})
	return c.val, c.err
}

// len counts the distinct keys ever requested.
func (f *flight[K, V]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

// share gives the empty f src's successfully completed entries: a done
// call is immutable, so both caches hold the same one. In-flight and
// failed computations are skipped.
func (f *flight[K, V]) share(src *flight[K, V]) {
	src.mu.Lock()
	defer src.mu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m = make(map[K]*call[V], len(src.m))
	for k, c := range src.m {
		if c.done.Load() && c.err == nil {
			f.m[k] = c
		}
	}
}

// CacheStats reports the context's cache population and how much work
// was actually executed to build it. With singleflight deduplication
// the key and execution columns are equal — each distinct model,
// calibration and run is computed exactly once regardless of
// concurrency. It is a thin view assembled on demand from the three
// caches' own counters.
type CacheStats struct {
	// Models / Calibrations / Runs count distinct cache keys requested.
	Models       int
	Calibrations int
	Runs         int
	// ModelsTrained / CalibrationsRun / RunsExecuted count how many
	// times the underlying computation actually ran.
	ModelsTrained   int
	CalibrationsRun int
	RunsExecuted    int
	// ModelHits / CalibrationHits / RunHits count requests served from
	// the cache (requests minus computations).
	ModelHits       int
	CalibrationHits int
	RunHits         int
}

// Stats snapshots the context's cache counters.
func (c *Context) Stats() CacheStats {
	return CacheStats{
		Models:          c.models.len(),
		Calibrations:    c.cals.len(),
		Runs:            c.runs.len(),
		ModelsTrained:   int(c.models.computes.Value()),
		CalibrationsRun: int(c.cals.computes.Value()),
		RunsExecuted:    int(c.runs.computes.Value()),
		ModelHits:       int(c.models.requests.Value() - c.models.computes.Value()),
		CalibrationHits: int(c.cals.requests.Value() - c.cals.computes.Value()),
		RunHits:         int(c.runs.requests.Value() - c.runs.computes.Value()),
	}
}

// workers is the context's fan-out bound: Parallel when positive,
// GOMAXPROCS when 0 (the default). Parallel = 1 forces the fully
// sequential schedule.
func (c *Context) workers() int {
	if c.Parallel > 0 {
		return c.Parallel
	}
	if c.Parallel == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// mapRows computes one value per item on the context's worker pool,
// preserving item order — the engine behind every generator's row
// fan-out. Each fn call typically resolves through the singleflight
// caches, so rows that share configurations share work.
func mapRows[T, R any](c *Context, items []T, fn func(T) (R, error)) ([]R, error) {
	return par.Map(c.workers(), items, fn)
}
