package telemetry

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// Metric name constants for the registry tests.
const (
	testMetricOps      = "goear_test_ops_total"
	testMetricDepth    = "goear_test_depth"
	testMetricWait     = "goear_test_wait_seconds"
	testMetricByResult = "goear_test_by_result_total"
	testMetricLatency  = "goear_test_latency_seconds"
)

func TestNameValidation(t *testing.T) {
	for _, ok := range []string{"goear_x", "goear_sim_steps_total", "goear_a1_b2"} {
		if !nameOK(ok) {
			t.Errorf("nameOK(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "goear_", "sim_steps", "goear_Steps", "goear_a-b", "goear_a.b", "xgoear_a"} {
		if nameOK(bad) {
			t.Errorf("nameOK(%q) = true", bad)
		}
	}
	r := newRegistry()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid name did not panic")
			}
		}()
		r.Counter("bad_name", "")
	}()
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := newRegistry()
	c := r.Counter(testMetricOps, "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}

	g := r.Gauge(testMetricDepth, "depth")
	g.Set(3)
	g.Add(-1.5)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %g", g.Value())
	}

	h := r.Histogram(testMetricWait, "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.count() != 5 || h.sum() != 56.05 {
		t.Errorf("histogram count=%d sum=%g", h.count(), h.sum())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var rec *Recorder
	var r *Registry
	var s *Set
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	rec.Record(Event{Kind: "x"})
	if c.Value() != 0 || g.Value() != 0 || h.count() != 0 || h.sum() != 0 {
		t.Error("nil instruments returned non-zero values")
	}
	if rec.Events() != nil || rec.ring().Len() != 0 || rec.ring().Dropped() != 0 {
		t.Error("nil recorder not empty")
	}
	if r.Counter(testMetricOps, "") != nil || r.CounterVec(testMetricByResult, "", "r") != nil {
		t.Error("nil registry handed out instruments")
	}
	var cv *CounterVec
	if cv.With("x") != nil {
		t.Error("nil vec handed out an instrument")
	}
	if s.Reg() != nil || s.Rec() != nil {
		t.Error("nil set not empty")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry encode: %v", err)
	}
}

func TestVecPreRegistration(t *testing.T) {
	r := newRegistry()
	v := r.CounterVec(testMetricByResult, "by result", "result")
	ok := v.With("ok")
	fail := v.With("fail")
	if v.With("ok") != ok {
		t.Error("With not idempotent")
	}
	ok.Add(3)
	fail.Inc()
	if ok.Value() != 3 || fail.Value() != 1 {
		t.Errorf("vec counters = %d, %d", ok.Value(), fail.Value())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong label arity did not panic")
			}
		}()
		v.With("a", "b")
	}()
}

func TestReRegistration(t *testing.T) {
	r := newRegistry()
	a := r.Counter(testMetricOps, "ops")
	b := r.Counter(testMetricOps, "ops")
	if a != b {
		t.Error("identical re-registration did not return the same instrument")
	}
	if r.Counter(testMetricOps, "") != a {
		t.Error("an empty-help fetch did not return the registered instrument")
	}
	r.HistogramVec(testMetricLatency, "latency by op", []float64{1}, "op")
	for name, register := range map[string]func(){
		"kind conflict":             func() { r.Gauge(testMetricOps, "ops") },
		"help mismatch":             func() { r.Counter(testMetricOps, "copied from another family") },
		"plain latency histogram":   func() { newRegistry().Histogram(testMetricLatency, "latency", []float64{1}) },
		"latency vec without op":    func() { newRegistry().HistogramVec(testMetricLatency, "latency", []float64{1}, "shard") },
		"latency family as a gauge": func() { newRegistry().GaugeVec(testMetricLatency, "latency", "op") },
		"latency help mismatch":     func() { r.HistogramVec(testMetricLatency, "another latency", []float64{1}, "op") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			register()
		}()
	}
}

func TestPrometheusEncodingAndParse(t *testing.T) {
	r := newRegistry()
	r.Counter(testMetricOps, "ops help").Add(7)
	r.Gauge(testMetricDepth, "depth").Set(2.5)
	v := r.CounterVec(testMetricByResult, "by result", "result")
	v.With("ok").Add(3)
	v.With("fail").Inc()
	h := r.Histogram(testMetricWait, "lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# HELP goear_test_ops_total ops help",
		"# TYPE goear_test_ops_total counter",
		"goear_test_ops_total 7",
		"goear_test_depth 2.5",
		`goear_test_by_result_total{result="fail"} 1`,
		`goear_test_by_result_total{result="ok"} 3`,
		`goear_test_wait_seconds_bucket{le="1"} 1`,
		`goear_test_wait_seconds_bucket{le="10"} 2`,
		`goear_test_wait_seconds_bucket{le="+Inf"} 3`,
		"goear_test_wait_seconds_sum 55.5",
		"goear_test_wait_seconds_count 3",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// Deterministic: a second encode is byte-identical.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != text {
		t.Error("encoding not deterministic")
	}

	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		byKey[s.Name+s.Labels] = s.Value
	}
	if byKey["goear_test_ops_total"] != 7 {
		t.Errorf("parsed ops = %g", byKey["goear_test_ops_total"])
	}
	if byKey[`goear_test_by_result_total{result="ok"}`] != 3 {
		t.Errorf("parsed labeled sample = %g", byKey[`goear_test_by_result_total{result="ok"}`])
	}
	if byKey[`goear_test_wait_seconds_bucket{le="+Inf"}`] != 3 {
		t.Error("parsed histogram bucket missing")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := newRegistry()
	r.CounterVec(testMetricByResult, "", "result").With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `{result="a\"b\\c\nd"}`) {
		t.Errorf("label not escaped:\n%s", sb.String())
	}
}

func TestRecorderRing(t *testing.T) {
	rec := NewRecorder(3)
	for i := 0; i < 5; i++ {
		rec.Record(Event{Kind: "k", TimeSec: float64(i)})
	}
	evs := rec.Events()
	if len(evs) != 3 || rec.ring().Len() != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].TimeSec != 2 || evs[2].TimeSec != 4 {
		t.Errorf("ring kept wrong events: %+v", evs)
	}
	if evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Errorf("sequence numbers: %+v", evs)
	}
	if rec.ring().Dropped() != 2 {
		t.Errorf("dropped = %d", rec.ring().Dropped())
	}
}

func TestWriteJSONLines(t *testing.T) {
	rec := NewRecorder(8)
	rec.Record(Event{Kind: "policy.decision", TimeSec: 1.5, Src: "n0",
		Str: map[string]string{"policy": "min_energy"},
		Num: map[string]float64{"cpu_pstate": 3, "b": 1, "a": 2}})
	var sb strings.Builder
	if err := rec.WriteJSONLines(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":1,"t":1.5,"kind":"policy.decision","src":"n0","str":{"policy":"min_energy"},"num":{"a":2,"b":1,"cpu_pstate":3}}` + "\n"
	if sb.String() != want {
		t.Errorf("jsonl = %q, want %q", sb.String(), want)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := newRegistry()
	c := r.Counter(testMetricOps, "")
	g := r.Gauge(testMetricDepth, "")
	h := r.Histogram(testMetricWait, "", []float64{10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || h.count() != 8000 || h.sum() != 8000 {
		t.Errorf("concurrent totals: c=%d g=%g h=%d/%g", c.Value(), g.Value(), h.count(), h.sum())
	}
}

func TestGlobalEnableDisable(t *testing.T) {
	if Enabled() {
		t.Fatal("telemetry enabled at test start")
	}
	var got *Set
	calls := 0
	OnEnable(func(s *Set) { got = s; calls++ })
	if calls != 0 {
		t.Fatal("hook ran while disabled")
	}
	s := Enable()
	if s == nil || Default() != s || !Enabled() {
		t.Fatal("Enable did not install a set")
	}
	if got != s || calls != 1 {
		t.Fatalf("hook: calls=%d", calls)
	}
	if Enable() != s || calls != 1 {
		t.Error("Enable not idempotent")
	}
	// A hook registered while enabled runs immediately.
	late := 0
	OnEnable(func(*Set) { late++ })
	if late != 1 {
		t.Errorf("late hook calls = %d", late)
	}
	Disable()
	if Enabled() || Default() != nil {
		t.Error("Disable did not clear the set")
	}
	if got != nil {
		t.Error("hook did not receive nil on Disable")
	}
	Disable() // idempotent
}

func TestHTTPHandler(t *testing.T) {
	s := NewSet()
	s.Registry.Counter(testMetricOps, "ops").Add(2)
	s.Events.Record(Event{Kind: "x"})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}
	if body := get("/metrics"); !strings.Contains(body, "goear_test_ops_total 2") {
		t.Errorf("/metrics:\n%s", body)
	}
	if body := get("/events"); !strings.Contains(body, `"kind":"x"`) {
		t.Errorf("/events:\n%s", body)
	}
	if body := get("/"); !strings.Contains(body, "/metrics") {
		t.Errorf("index:\n%s", body)
	}
}
