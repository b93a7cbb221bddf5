package telemetry

import (
	"io"
	"net/http"
	"slices"
	"strings"
)

// droppedEventsHeader carries the recorder's overwritten-event count
// on every /events response, so scrapers can detect ring overruns
// (previously silent) and tell a quiet source from a wrapped ring.
const droppedEventsHeader = "X-Goear-Dropped-Events"

// routes are the set's pages by mux pattern:
//
//	GET /metrics             Prometheus text exposition of the registry
//	GET /events[?since=seq]  buffered events as JSON lines, oldest
//	                         first; since=seq resumes after that
//	                         sequence number
//
// Every /events response carries the recorder's dropped-event count
// in the X-Goear-Dropped-Events header. A nil Set serves empty
// bodies. Write errors mean the client went away mid-response and are
// ignored.
func (s *Set) routes() map[string]http.Handler {
	return map[string]http.Handler{
		"/metrics": http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = s.Reg().WritePrometheus(w)
		}),
		"/events": http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			events, _, ok := s.Rec().ring().ServeSince(w, req, droppedEventsHeader)
			if !ok {
				return
			}
			_ = WriteJSONLines(w, events)
		}),
	}
}

// withIndex mounts routes on a mux whose / lists them, one pattern a
// line in sorted order, so the index names exactly what is served.
func withIndex(routes map[string]http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	patterns := make([]string, 0, len(routes))
	for pattern, h := range routes {
		mux.Handle(pattern, h)
		patterns = append(patterns, pattern)
	}
	slices.Sort(patterns)
	index := "goear telemetry\n\n" + strings.Join(patterns, "\n") + "\n"
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, index)
	})
	return mux
}
