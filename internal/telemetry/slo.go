package telemetry

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// SLO summarises per-operation latency objectives from registered
// histograms. Each entry pairs a wire-op name with the histogram that
// observes it and a p99 target in seconds; report computes the
// current quantile estimates and whether each op is inside its
// objective. All methods are nil-safe so daemons can wire an SLO
// unconditionally and register entries only when telemetry is on.
type SLO struct {
	mu      sync.Mutex
	entries []sloEntry
}

type sloEntry struct {
	op     string
	h      *Histogram
	target float64
}

// sloReport is one operation's current latency summary.
type sloReport struct {
	Op        string  `json:"op"`
	Count     uint64  `json:"count"`
	P50       float64 `json:"p50"`
	P95       float64 `json:"p95"`
	P99       float64 `json:"p99"`
	TargetP99 float64 `json:"target_p99,omitempty"`
	OK        bool    `json:"ok"`
}

// NewSLO returns an empty summary.
func NewSLO() *SLO { return &SLO{} }

// Register adds one operation backed by h. A zero targetP99 means "no
// objective": the op is reported but always OK. Registering the same
// op again replaces its entry, so daemons can re-bind after a
// telemetry restart.
func (s *SLO) Register(op string, h *Histogram, targetP99 float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.entries {
		if s.entries[i].op == op {
			s.entries[i] = sloEntry{op: op, h: h, target: targetP99}
			return
		}
	}
	s.entries = append(s.entries, sloEntry{op: op, h: h, target: targetP99})
}

// report returns the current summary for every registered op, sorted
// by op name so the output is stable across registration order.
func (s *SLO) report() []sloReport {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	entries := append([]sloEntry(nil), s.entries...)
	s.mu.Unlock()
	out := make([]sloReport, 0, len(entries))
	for _, e := range entries {
		r := sloReport{
			Op:        e.op,
			Count:     e.h.Count(),
			P50:       e.h.quantile(0.50),
			P95:       e.h.quantile(0.95),
			P99:       e.h.quantile(0.99),
			TargetP99: e.target,
		}
		r.OK = e.target == 0 || r.Count == 0 || r.P99 <= e.target
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}

// Handler serves the report as a JSON array. Write errors mean the
// client went away and are ignored.
func (s *SLO) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		rep := s.report()
		if rep == nil {
			rep = []sloReport{}
		}
		_ = enc.Encode(rep)
	})
}
