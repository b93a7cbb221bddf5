package main

import (
	"net"
	"strings"
	"testing"

	"goear/internal/telemetry"
)

// serveTelemetry serves a telemetry set with known values on a
// telemetry endpoint and returns its host:port.
func serveTelemetry(t *testing.T) string {
	t.Helper()
	set := telemetry.NewSet()
	set.Registry.Counter("goear_test_batches_total", "test counter").Add(7)
	set.Registry.Gauge("goear_test_power_watts", "test gauge").Set(412.5)
	set.Events.Record(telemetry.Event{Kind: "test.event", Src: "n0"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	telemetry.ServeEndpoint(ln, set, nil, nil)
	return ln.Addr().String()
}

func TestMetricsTable(t *testing.T) {
	addr := serveTelemetry(t)
	out := capture(t, []string{"metrics", "-addr", addr})
	for _, want := range []string{"telemetry snapshot", "goear_test_batches_total", "7", "goear_test_power_watts", "412.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics table missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsRawAndEvents(t *testing.T) {
	addr := serveTelemetry(t)
	raw := capture(t, []string{"metrics", "-addr", addr, "-raw"})
	if !strings.Contains(raw, "# TYPE goear_test_batches_total counter") {
		t.Errorf("raw exposition missing TYPE line:\n%s", raw)
	}
	ev := capture(t, []string{"metrics", "-addr", addr, "-events"})
	if !strings.Contains(ev, `"kind":"test.event"`) {
		t.Errorf("events output = %q", ev)
	}
}

func TestMetricsErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"metrics"}, &b); err == nil {
		t.Error("metrics without -addr accepted")
	}
	if err := run([]string{"metrics", "-addr", "127.0.0.1:1"}, &b); err == nil {
		t.Error("dial to dead endpoint accepted")
	}
}
