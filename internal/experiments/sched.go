package experiments

import (
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"

	"goear/internal/telemetry"
)

// flight is a singleflight cache: the first caller of a key computes
// its value while concurrent callers of the same key block on the same
// computation instead of duplicating it. Completed values (including
// errors, which are deterministic here: bad configurations stay bad)
// are cached for the cache's lifetime. It counts its own requests and
// computations. The zero value is ready to use.
//
// Entries are indexed by a digest of their key, not by the key: a map
// stores a key past 128 bytes (a runKey is 160) out of line, one
// allocation per insert. Each entry keeps its whole key, entries whose
// digests collide chain through next, and a lookup compares whole
// keys, so two keys never share an entry. The entries are cut from
// chunks the cache owns, in the order their keys were first requested.
type flight[K comparable, V any] struct {
	mu     sync.Mutex
	seed   maphash.Seed
	heads  map[uint64]*call[K, V]
	chunks []*[callChunk]call[K, V]
	n      int // entries cut so far

	// digest, when set, replaces the maphash digest: tests make keys
	// collide with it.
	digest func(K) uint64

	requests, computes telemetry.Counter
}

// callChunk is the number of entries per chunk: the campaign's 114
// runs take four chunks.
const callChunk = 32

type call[K comparable, V any] struct {
	key  K
	next *call[K, V] // the next entry with the same digest

	once sync.Once
	done atomic.Bool
	val  V
	err  error
}

// do returns the cached value for key, computing it with fn exactly
// once no matter how many goroutines ask concurrently. The request and
// the computation are counted here and, with a set, into its series
// labelled as.
func (f *flight[K, V]) do(set *telemetry.Set, as cache, key K, fn func() (V, error)) (V, error) {
	requests, computes := cacheCounters(set, as)
	f.requests.Inc()
	requests.Inc()
	f.mu.Lock()
	c := f.entry(key)
	f.mu.Unlock()
	if !c.done.Load() {
		c.once.Do(func() {
			f.computes.Inc()
			computes.Inc()
			c.val, c.err = fn()
			c.done.Store(true)
		})
	}
	return c.val, c.err
}

// entry returns key's entry, adding an empty one on the key's first
// request. f.mu is held.
func (f *flight[K, V]) entry(key K) *call[K, V] {
	if f.heads == nil {
		f.heads = map[uint64]*call[K, V]{}
		f.seed = maphash.MakeSeed()
	}
	d := maphash.Comparable(f.seed, key)
	if f.digest != nil {
		d = f.digest(key)
	}
	for c := f.heads[d]; c != nil; c = c.next {
		if c.key == key {
			return c
		}
	}
	if f.n%callChunk == 0 {
		f.chunks = append(f.chunks, new([callChunk]call[K, V]))
	}
	c := &f.chunks[f.n/callChunk][f.n%callChunk]
	f.n++
	c.key, c.next = key, f.heads[d]
	f.heads[d] = c
	return c
}

// len counts the distinct keys ever requested.
func (f *flight[K, V]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// share gives the empty f src's successfully completed entries, in
// src's order: a done entry's value is immutable, so both caches hold
// the same one. In-flight and failed computations are skipped.
func (f *flight[K, V]) share(src *flight[K, V]) {
	src.mu.Lock()
	defer src.mu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range src.n {
		s := &src.chunks[i/callChunk][i%callChunk]
		if s.done.Load() && s.err == nil {
			c := f.entry(s.key)
			c.val = s.val
			c.done.Store(true)
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
