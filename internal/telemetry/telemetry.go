// Package telemetry is the repo's stdlib-only observability layer: a
// metrics registry of allocation-free atomic instruments (Counter,
// Gauge, Histogram and their labeled Vec families), a Prometheus
// text-format encoder, and a bounded ring Recorder for structured
// events with JSON-lines export.
//
// Design rules (the registry panics at setup on a breach of the
// first):
//
//   - Metric names match ^goear_[a-z0-9_]+$. A name registered twice
//     must carry the same help (or none, to fetch the family), and a
//     _latency_seconds family is a histogram keyed by op.
//   - Label sets are resolved at setup time: Vec.With returns a plain
//     instrument handle, so the hot path never hashes strings or
//     allocates.
//   - Instruments are nil-safe: every method on a nil instrument is a
//     no-op, so disabled telemetry costs one predictable nil check.
//
// Every Set is passed in: a component counts into the Set its
// configuration carries (sim.Options, eardbd.Config, fed.Config,
// loadgen.Config, eargm.Config) and into nothing when that is nil, so
// several runs or instances in one process or test never share series.
package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// nameOK reports whether name matches ^goear_[a-z0-9_]+$ without
// pulling regexp into every binary that links telemetry.
func nameOK(name string) bool {
	const prefix = "goear_"
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return false
	}
	for i := len(prefix); i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' {
			continue
		}
		return false
	}
	return true
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// series is one label-value combination of a family. Exactly one of
// c/g/h is non-nil, matching the family kind.
type series struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric with all its label-value series. Plain
// (unlabeled) instruments are a family with a single anonymous series.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string
	bounds []float64

	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

// with returns the series for the given label values, creating it on
// first use. Setup-time only: it locks and may allocate.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s has labels %v, got %d value(s)",
			f.name, f.labels, len(values)))
	}
	key := ""
	for _, v := range values {
		key += v + "\x00"
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.bounds)
	}
	if f.byKey == nil {
		f.byKey = make(map[string]*series)
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// Registry holds metric families. The zero value is not usable; use
// newRegistry. A nil *Registry is valid and hands out nil instruments,
// so disabled instance-scoped telemetry needs no branches at setup.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family registers or fetches a family. It panics on an invalid name,
// on a latency family that is not a histogram keyed by op, and on a
// re-registration with another shape or another non-empty help: a
// copy-pasted name would otherwise fold two metrics into one family.
// The identical shape returns the existing family, so several
// instances (e.g. many EARDBD clients) may share one registry; an
// empty help only fetches.
func (r *Registry) family(name, help string, k kind, labels []string, bounds []float64) *family {
	if !nameOK(name) {
		panic(fmt.Sprintf("telemetry: metric name %q must match ^goear_[a-z0-9_]+$", name))
	}
	if strings.HasSuffix(name, "_latency_seconds") && (k != kindHistogram || !slices.Contains(labels, "op")) {
		panic(fmt.Sprintf("telemetry: latency family %s must be a histogram keyed by op, got %s%v", name, k, labels))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != k || !slices.Equal(f.labels, labels) || !slices.Equal(f.bounds, bounds) {
			panic(fmt.Sprintf("telemetry: metric %s re-registered as %s%v (was %s%v)",
				name, k, labels, f.kind, f.labels))
		}
		if help != "" && help != f.help {
			panic(fmt.Sprintf("telemetry: metric %s re-registered with help %q (was %q)", name, help, f.help))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...)}
	r.fams[name] = f
	return f
}

// Counter registers (or fetches) a plain counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindCounter, nil, nil).with(nil).c
}

// Gauge registers (or fetches) a plain gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, kindGauge, nil, nil).with(nil).g
}

// Histogram registers (or fetches) a plain histogram with the given
// upper bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	checkBounds(name, bounds)
	return r.family(name, help, kindHistogram, nil, bounds).with(nil).h
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.family(name, help, kindCounter, labels, nil)}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.family(name, help, kindGauge, labels, nil)}
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	checkBounds(name, bounds)
	return &HistogramVec{fam: r.family(name, help, kindHistogram, labels, bounds)}
}

func checkBounds(name string, bounds []float64) {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %s needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s bounds not ascending: %v", name, bounds))
		}
	}
}

// CounterVec hands out per-label-set counters. Resolve handles at
// setup time with With; never call With on a hot path.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.with(values).c
}

// GaugeVec hands out per-label-set gauges.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.fam.with(values).g
}

// HistogramVec hands out per-label-set histograms.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.with(values).h
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// Set bundles the two telemetry sinks a component needs: a metric
// registry and an event recorder. A nil *Set is valid everywhere and
// means "telemetry off".
type Set struct {
	Registry *Registry
	Events   *Recorder
}

// NewSet returns a Set with a fresh registry and a default-capacity
// event recorder.
func NewSet() *Set {
	return &Set{Registry: newRegistry(), Events: NewRecorder(0)}
}

// Reg returns the set's registry, nil when the set is nil.
func (s *Set) Reg() *Registry {
	if s == nil {
		return nil
	}
	return s.Registry
}

// Rec returns the set's event recorder, nil when the set is nil.
func (s *Set) Rec() *Recorder {
	if s == nil {
		return nil
	}
	return s.Events
}
