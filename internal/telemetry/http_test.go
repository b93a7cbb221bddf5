package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// get fetches path from srv and returns the response; the body is
// read fully and returned as a string.
func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestEventsSince(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: "k"})
	}
	if got := r.ring().Since(0); len(got) != 5 {
		t.Fatalf("since 0: %d events, want 5", len(got))
	}
	got := r.ring().Since(3)
	if len(got) != 2 || got[0].Seq != 4 || got[1].Seq != 5 {
		t.Fatalf("since 3: %+v", got)
	}
	if got := r.ring().Since(5); len(got) != 0 {
		t.Fatalf("since 5: %d events, want 0", len(got))
	}
	var nilRec *Recorder
	if got := nilRec.ring().Since(0); got != nil {
		t.Fatalf("nil recorder: %v", got)
	}
}

func TestEventsEndpointSinceAndDropped(t *testing.T) {
	s := &Set{Registry: newRegistry(), Events: NewRecorder(4)}
	for i := 0; i < 6; i++ { // capacity 4: seqs 3..6 survive, 2 dropped
		s.Events.Record(Event{Kind: "k"})
	}
	srv := httptest.NewServer(withIndex(s.routes()))
	defer srv.Close()

	resp, body := get(t, srv, "/events")
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	if h := resp.Header.Get(droppedEventsHeader); h != "2" {
		t.Errorf("%s = %q, want 2", droppedEventsHeader, h)
	}
	if n := strings.Count(body, "\n"); n != 4 {
		t.Errorf("/events returned %d lines, want 4:\n%s", n, body)
	}

	resp, body = get(t, srv, "/events?since=5")
	if h := resp.Header.Get(droppedEventsHeader); h != "2" {
		t.Errorf("%s on since = %q, want 2", droppedEventsHeader, h)
	}
	if n := strings.Count(body, "\n"); n != 1 || !strings.Contains(body, `"seq":6`) {
		t.Errorf("/events?since=5:\n%s", body)
	}

	if resp, _ := get(t, srv, "/events?since=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad since status = %d, want 400", resp.StatusCode)
	}
}

func TestQuantile(t *testing.T) {
	r := newRegistry()
	h := r.Histogram("goear_test_q_seconds", "q", []float64{0.1, 0.5, 1})
	if got := h.quantile(0.99); got != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", got)
	}
	// 10 observations in (0.1, 0.5]: rank interpolates inside that bucket.
	for i := 0; i < 10; i++ {
		h.Observe(0.3)
	}
	p50 := h.quantile(0.50)
	if p50 <= 0.1 || p50 > 0.5 {
		t.Errorf("p50 = %v, want within (0.1, 0.5]", p50)
	}
	// An outlier beyond every bound lands in +Inf and clamps to the
	// largest finite bound.
	h.Observe(1e9)
	if got := h.quantile(1.0); got != 1 {
		t.Errorf("p100 with +Inf outlier = %v, want clamp to 1", got)
	}
	var nilH *Histogram
	if got := nilH.quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v", got)
	}
}

func TestSLOReportAndHandler(t *testing.T) {
	r := newRegistry()
	fast := r.Histogram("goear_test_fast_seconds", "fast", []float64{0.01, 0.1, 1})
	slow := r.Histogram("goear_test_slow_seconds", "slow", []float64{0.01, 0.1, 1})
	for i := 0; i < 100; i++ {
		fast.Observe(0.005)
		slow.Observe(0.5)
	}
	s := NewSLO()
	s.Register("query", slow, 0.1) // violated
	s.Register("batch", fast, 0.1) // met
	s.Register("idle", nil, 0.1)   // no observations: vacuously OK

	rep := s.report()
	if len(rep) != 3 {
		t.Fatalf("report has %d entries, want 3", len(rep))
	}
	// Sorted by op name regardless of registration order.
	if rep[0].Op != "batch" || rep[1].Op != "idle" || rep[2].Op != "query" {
		t.Fatalf("report order: %+v", rep)
	}
	if !rep[0].OK || rep[0].Count != 100 {
		t.Errorf("batch report: %+v", rep[0])
	}
	if !rep[1].OK || rep[1].Count != 0 {
		t.Errorf("idle report: %+v", rep[1])
	}
	if rep[2].OK {
		t.Errorf("query report should violate its target: %+v", rep[2])
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, body := get(t, srv, "/")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var decoded []sloReport
	if err := json.Unmarshal([]byte(body), &decoded); err != nil || len(decoded) != 3 {
		t.Errorf("handler body (%v): %s", err, body)
	}

	var nilSLO *SLO
	nilSLO.Register("x", nil, 1)
	if nilSLO.report() != nil {
		t.Error("nil SLO report not nil")
	}
}

func TestHealthEndpoints(t *testing.T) {
	h := NewHealth()
	shardOK := true
	h.Register(func() Check { return Check{Name: "store", OK: true, Detail: "gen 4"} })
	h.Register(func() Check {
		return Check{Name: "shards", OK: shardOK, Detail: "2/2 reachable"}
	})

	mux := http.NewServeMux()
	mux.Handle("/healthz", h.healthz())
	mux.Handle("/readyz", h.readyz())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, body := get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var hb struct {
		Status string  `json:"status"`
		Checks []Check `json:"checks"`
	}
	if err := json.Unmarshal([]byte(body), &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Status != "ok" || len(hb.Checks) != 2 || hb.Checks[1].Detail != "2/2 reachable" {
		t.Errorf("/healthz body: %+v", hb)
	}
	if resp, _ := get(t, srv, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz status = %d, want 200", resp.StatusCode)
	}

	// One failing check degrades readiness but never liveness.
	shardOK = false
	resp, body = get(t, srv, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("degraded /readyz status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(body, `"degraded"`) {
		t.Errorf("degraded /readyz body:\n%s", body)
	}
	if resp, body := get(t, srv, "/healthz"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `"degraded"`) {
		t.Errorf("degraded /healthz: status %d body %s", resp.StatusCode, body)
	}

	// Nil Health serves ok with no checks: daemons wire it blindly.
	var nilH *Health
	nilH.Register(func() Check { return Check{} })
	rec := httptest.NewRecorder()
	nilH.readyz().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("nil health /readyz: %d %s", rec.Code, rec.Body.String())
	}
}
