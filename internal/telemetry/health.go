package telemetry

import (
	"encoding/json"
	"net/http"
	"sync"
)

// Check is one component's health verdict: a stable name, a pass/fail
// bit, and a short human detail ("3/4 shards reachable").
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// CheckFunc produces a Check on demand. Funcs run on every probe, so
// they must be cheap and must not block on the network — report
// cached reachability, not a live dial.
type CheckFunc func() Check

// Health aggregates component checks behind the two Kubernetes-style
// probe endpoints: /healthz (liveness — the process is serving, always
// 200) and /readyz (readiness — 503 until every check passes). All
// methods are nil-safe; a nil Health serves "ok" with no checks.
type Health struct {
	mu     sync.Mutex
	checks []CheckFunc
}

// NewHealth returns an empty check set.
func NewHealth() *Health { return &Health{} }

// Register adds a check. Checks report in registration order.
func (h *Health) Register(fn CheckFunc) {
	if h == nil || fn == nil {
		return
	}
	h.mu.Lock()
	h.checks = append(h.checks, fn)
	h.mu.Unlock()
}

// run evaluates every check in registration order.
func (h *Health) run() []Check {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	fns := append([]CheckFunc(nil), h.checks...)
	h.mu.Unlock()
	out := make([]Check, 0, len(fns))
	for _, fn := range fns {
		out = append(out, fn())
	}
	return out
}

// healthBody is the JSON shape both probes serve.
type healthBody struct {
	Status string  `json:"status"` // "ok" or "degraded"
	Checks []Check `json:"checks"`
}

func (h *Health) body() (healthBody, bool) {
	checks := h.run()
	if checks == nil {
		checks = []Check{}
	}
	allOK := true
	for _, c := range checks {
		if !c.OK {
			allOK = false
		}
	}
	status := "ok"
	if !allOK {
		status = "degraded"
	}
	return healthBody{Status: status, Checks: checks}, allOK
}

// healthz is the liveness probe: it always answers 200 — reaching the
// handler proves the process is alive — and reports the check details
// so operators can see degradation without flipping readiness.
func (h *Health) healthz() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, _ := h.body()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})
}

// readyz is the readiness probe: 200 when every check passes, 503
// otherwise, with the same JSON body as /healthz.
func (h *Health) readyz() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, ok := h.body()
		w.Header().Set("Content-Type", "application/json")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})
}
