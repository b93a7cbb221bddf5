package telemetry

import (
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"time"
)

// What every command's main would otherwise repeat — the HTTP endpoint,
// the "-"-or-path sink, the wall clock — one of each. This package is
// outside the determinism analyzer's scope, so real time is read here.

// ServeEndpoint serves a process's telemetry endpoint on ln until ln
// closes: the set's /metrics and /events, health's /healthz and
// /readyz, the caller's extra routes by mux pattern, and at / an index
// of all of them. A nil set or health serves the empty forms.
func ServeEndpoint(ln net.Listener, set *Set, health *Health, extra map[string]http.Handler) {
	routes := set.routes()
	routes["/healthz"] = health.healthz()
	routes["/readyz"] = health.readyz()
	maps.Copy(routes, extra)
	mux := withIndex(routes)
	// Serve returns when the listener closes; the process's fate is
	// decided by its real work, not by this endpoint.
	go func() { _ = http.Serve(ln, mux) }()
}

// Sink runs write against the file at path, or against stdout when
// path is "-" — the convention of every -…-out flag. An empty path
// writes nothing.
func Sink(path string, stdout io.Writer, write func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// WallClock reads real time as monotonic seconds since it was started
// and sleeps for real: an eardbd.Clock, and through its Now method the
// clock function servers, roots and the load generator time spans with.
type WallClock struct{ start time.Time }

// StartWallClock returns a clock reading zero now.
func StartWallClock() WallClock { return WallClock{start: time.Now()} }

// Now returns the seconds elapsed since the clock started.
func (c WallClock) Now() float64 { return time.Since(c.start).Seconds() }

// Sleep blocks for sec seconds.
func (WallClock) Sleep(sec float64) { time.Sleep(time.Duration(sec * float64(time.Second))) }
