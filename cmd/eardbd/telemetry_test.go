package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"goear/internal/eard"
	"goear/internal/telemetry"
	"goear/internal/wire"
)

// get fetches path from the telemetry endpoint at addr and returns the
// status code and body.
func get(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// scrape reads the /metrics exposition at addr into each sample's value
// keyed by its name and labels as written (`name{k="v"}`).
func scrape(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	code, body := get(t, addr, "/metrics")
	samples, err := telemetry.ParseText(strings.NewReader(body))
	if code != http.StatusOK || err != nil {
		t.Fatalf("/metrics = %d, %v", code, err)
	}
	vals := map[string]float64{}
	for _, s := range samples {
		vals[s.Name+s.Labels] = s.Value
	}
	return vals
}

// TestDaemonTelemetryEndpoint boots the daemon with -telemetry, feeds
// it a batch (plus a dedup-window redelivery), and scrapes the HTTP
// endpoint: the closed loop the observability layer exists for.
func TestDaemonTelemetryEndpoint(t *testing.T) {
	addrs, stop := startDaemon(t, "-telemetry", "127.0.0.1:0")
	if len(addrs) != 2 {
		t.Fatalf("ready addrs = %v, want wire + telemetry", addrs)
	}
	wireAddr, telAddr := addrs[0], addrs[1]

	b := wire.Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		{JobID: "j1", StepID: "0", Node: "n01", App: "X", TimeSec: 10, EnergyJ: 3000, AvgPower: 300},
		{JobID: "j1", StepID: "0", Node: "n02", App: "X", TimeSec: 10, EnergyJ: 3100, AvgPower: 310},
	}}
	sendBatch(t, wireAddr, b)
	// Redeliver the same batch ID: the dedup window must absorb it.
	sendBatch(t, wireAddr, b)

	resp, err := http.Get("http://" + telAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	if !strings.Contains("\n"+string(body), "\n# TYPE goear_eardbd_batches_total counter\n") {
		t.Errorf("exposition has no counter TYPE line for the batches family:\n%s", body)
	}
	vals := scrape(t, telAddr)
	for key, want := range map[string]float64{
		`goear_eardbd_batches_total{result="accepted"}`:  1,
		`goear_eardbd_batches_total{result="duplicate"}`: 1,
		`goear_eardbd_records_total{result="accepted"}`:  2,
		`goear_eardbd_records_total{result="duplicate"}`: 2,
	} {
		if got, ok := vals[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if vals["goear_eardbd_connections_total"] < 2 {
		t.Errorf("connections = %v, want >= 2", vals["goear_eardbd_connections_total"])
	}

	if _, events := get(t, telAddr, "/events"); !strings.Contains(events, `"kind":"eardbd.batch"`) ||
		!strings.Contains(events, `"result":"duplicate"`) {
		t.Errorf("event log missing batch events:\n%s", events)
	}

	if out := stop(); !strings.Contains(out, "telemetry on http://") {
		t.Errorf("startup output missing telemetry line:\n%s", out)
	}
}

// TestDaemonTraceAndHealthEndpoints boots an ingest daemon with
// tracing on and scrapes the observability surface: the probes must
// answer, a delivered batch must show up as server-side spans on
// /traces, and the index at / must list every route and nothing else.
func TestDaemonTraceAndHealthEndpoints(t *testing.T) {
	addrs, stop := startDaemon(t, "-telemetry", "127.0.0.1:0", "-trace")
	defer stop()
	wireAddr, telAddr := addrs[0], addrs[len(addrs)-1]

	sendBatch(t, wireAddr, wire.Batch{ID: "n05/1", Node: "n05", Records: []eard.JobRecord{
		{JobID: "j9", StepID: "0", Node: "n05", App: "X", TimeSec: 10, EnergyJ: 3000, AvgPower: 300},
	}})

	if code, body := get(t, telAddr, "/healthz"); code != 200 || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz = %d %s", code, body)
	}
	if code, body := get(t, telAddr, "/readyz"); code != 200 || !strings.Contains(body, `"generation 1"`) {
		t.Errorf("/readyz = %d %s", code, body)
	}
	if code, body := get(t, telAddr, "/slo"); code != 200 || !strings.Contains(body, `"op": "batch"`) {
		t.Errorf("/slo = %d %s", code, body)
	}
	if code, body := get(t, telAddr, "/traces"); code != 200 ||
		!strings.Contains(body, `"kind":"server.batch"`) || !strings.Contains(body, `"batch":"n05/1"`) {
		t.Errorf("/traces = %d %s", code, body)
	}
	if code, body := get(t, telAddr, "/traces?kind=server.store"); code != 200 || strings.Contains(body, "server.batch") {
		t.Errorf("/traces?kind filter leaked: %d %s", code, body)
	}
	// The index lists every route mounted, and every path it lists
	// answers.
	_, index := get(t, telAddr, "/")
	var listed []string
	for _, line := range strings.Split(index, "\n") {
		if strings.HasPrefix(line, "/") {
			listed = append(listed, line)
		}
	}
	if got, want := strings.Join(listed, " "), "/api/jobs /events /healthz /metrics /readyz /slo /traces"; got != want {
		t.Errorf("index lists %q, want %q", got, want)
	}
	for _, path := range listed {
		if code, _ := get(t, telAddr, path); code == http.StatusNotFound {
			t.Errorf("GET %s = 404, but the index lists it", path)
		}
	}
}
