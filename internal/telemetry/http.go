package telemetry

import (
	"net/http"
	"strings"
)

// droppedEventsHeader carries the recorder's overwritten-event count
// on every /events response, so scrapers can detect ring overruns
// (previously silent) and tell a quiet source from a wrapped ring.
const droppedEventsHeader = "X-Goear-Dropped-Events"

// Handler serves the set over HTTP:
//
//	GET /metrics             Prometheus text exposition of the registry
//	GET /events[?since=seq]  buffered events as JSON lines, oldest
//	                         first; since=seq resumes after that
//	                         sequence number
//	GET /                    a plain-text index
//
// Every /events response carries the recorder's dropped-event count
// in the X-Goear-Dropped-Events header. A nil Set serves empty
// bodies, so callers can wire the handler unconditionally. Write
// errors mean the client went away mid-response and are ignored.
func (s *Set) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.Reg().WritePrometheus(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		events, _, ok := s.Rec().ring().ServeSince(w, req, droppedEventsHeader)
		if !ok {
			return
		}
		_ = WriteJSONLines(w, events)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var sb strings.Builder
		sb.WriteString("goear telemetry\n\n")
		sb.WriteString("/metrics  Prometheus text format\n")
		sb.WriteString("/events   JSON-lines event buffer (?since=seq resumes)\n")
		_, _ = w.Write([]byte(sb.String()))
	})
	return mux
}
