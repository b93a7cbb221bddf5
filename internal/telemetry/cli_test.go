package telemetry

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// TestServeEndpoint mounts the full endpoint on a real listener: the
// set's pages, both probes and a caller route must all answer, and a
// failing check must flip /readyz only.
func TestServeEndpoint(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	set := NewSet()
	set.Reg().Counter("goear_test_endpoint_total", "t").Inc()
	var down atomic.Bool
	health := NewHealth()
	health.Register(func() Check { return Check{Name: "x", OK: !down.Load()} })
	ServeEndpoint(ln, set, health, map[string]http.Handler{
		"/extra": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "caller route") }),
	})
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	for path, want := range map[string]string{
		"/":        "goear telemetry",
		"/metrics": "goear_test_endpoint_total 1",
		"/healthz": `"status": "ok"`,
		"/readyz":  `"status": "ok"`,
		"/extra":   "caller route",
	} {
		if code, body := get(path); code != 200 || !strings.Contains(body, want) {
			t.Errorf("GET %s = %d %q, want 200 with %q", path, code, body, want)
		}
	}
	down.Store(true)
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz with a failing check = %d, want 503", code)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz with a failing check = %d, want 200", code)
	}
}

// TestSink covers the three destinations of every -…-out flag and the
// error paths: nothing, the command's own stream, a file.
func TestSink(t *testing.T) {
	write := func(w io.Writer) error { _, err := io.WriteString(w, "payload\n"); return err }
	var stdout strings.Builder
	if err := Sink("", &stdout, func(io.Writer) error { t.Error("empty path wrote"); return nil }); err != nil {
		t.Error(err)
	}
	if err := Sink("-", &stdout, write); err != nil || stdout.String() != "payload\n" {
		t.Errorf(`Sink("-") = %v, stdout %q`, err, stdout.String())
	}
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := Sink(path, &stdout, write); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "payload\n" {
		t.Errorf("file = %q, %v", got, err)
	}
	if stdout.String() != "payload\n" {
		t.Errorf("a file sink also wrote to stdout: %q", stdout.String())
	}
	boom := errors.New("boom")
	if err := Sink(path, &stdout, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("write error lost: %v", err)
	}
	if err := Sink(filepath.Join(t.TempDir(), "no", "dir"), &stdout, write); err == nil {
		t.Error("uncreatable path did not error")
	}
}

func TestWallClock(t *testing.T) {
	c := StartWallClock()
	a := c.Now()
	c.Sleep(0.002)
	if b := c.Now(); a < 0 || b-a < 0.002 {
		t.Errorf("Now went %g -> %g across a 2 ms sleep", a, b)
	}
}
