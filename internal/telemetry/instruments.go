package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. All methods are
// nil-safe no-ops so a disabled instrument costs one nil check; the
// enabled path is a single atomic add. The zero value is usable
// standalone (e.g. embedded in a struct) — registering it in a
// Registry is only needed for export.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, stored as IEEE-754 bits
// in a uint64 so loads and stores are single atomics.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (CAS loop; contention on gauges is setup/coarse-grained
// by design).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bounds are upper
// bucket limits in ascending order; an implicit +Inf bucket catches
// the rest. Observe is a linear scan over the (small, fixed) bounds
// plus two atomic adds and a CAS float sum.
type Histogram struct {
	bounds   []float64
	buckets  []atomic.Uint64 // len(bounds)+1, last is +Inf
	observed atomic.Uint64
	sumBits  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.observed.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// count returns the number of observations (0 on nil).
func (h *Histogram) count() uint64 {
	if h == nil {
		return 0
	}
	return h.observed.Load()
}

// sum returns the sum of observed values (0 on nil).
func (h *Histogram) sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// quantile estimates the q-quantile (0 < q <= 1) from the bucket
// counts by linear interpolation within the covering bucket — the
// same estimate Prometheus' histogram_quantile computes. The +Inf
// bucket has no upper edge, so observations landing there estimate as
// the largest finite bound. Returns 0 on a nil or empty histogram.
func (h *Histogram) quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.observed.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if float64(cum+n) >= rank && n > 0 {
			if i >= len(h.bounds) {
				// +Inf bucket: clamp to the largest finite edge.
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}
