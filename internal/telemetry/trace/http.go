package trace

import (
	"net/http"
	"strings"
)

// DroppedHeader carries the buffer's overwritten-span count on every
// /traces response, so a scraper can detect ring overruns instead of
// silently missing spans.
const DroppedHeader = "X-Goear-Dropped-Spans"

// Handler serves the buffer's spans as JSON lines. Query parameters
// filter the output:
//
//	?trace=<16-hex>  only spans of that trace
//	?kind=<prefix>   only spans whose kind has that dot-path prefix
//	                 ("client" matches client.batch, not clientele)
//	?since=<seq>     only spans recorded after that sequence number,
//	                 in arrival order with sequence numbers kept —
//	                 the resume form; without it the output is the
//	                 canonical (content-sorted, seq-less) export
//
// A nil buffer serves an empty body, so daemons can mount the handler
// unconditionally.
func (b *Buffer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		qp := req.URL.Query()
		traceParam := qp.Get("trace")
		var traceID HexID
		if traceParam != "" {
			id, err := parseID(traceParam)
			if err != nil {
				http.Error(w, "bad trace parameter: "+err.Error(), http.StatusBadRequest)
				return
			}
			traceID = HexID(id)
		}
		spans, resumed, ok := b.ring().ServeSince(w, req, DroppedHeader)
		if !ok {
			return
		}
		if !resumed {
			spans = canonical(spans)
		}
		if traceParam != "" {
			spans = filterSpans(spans, func(s Span) bool { return s.Trace == traceID })
		}
		if v := qp.Get("kind"); v != "" {
			spans = filterSpans(spans, func(s Span) bool { return kindHasPrefix(s.Kind, v) })
		}
		_ = WriteJSONLines(w, spans)
	})
}

// filterSpans keeps the spans matching keep, preserving order.
func filterSpans(spans []Span, keep func(Span) bool) []Span {
	out := spans[:0:0]
	for _, s := range spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// kindHasPrefix reports whether kind equals prefix or starts with
// prefix at a dot boundary.
func kindHasPrefix(kind, prefix string) bool {
	if kind == prefix {
		return true
	}
	return strings.HasPrefix(kind, prefix) && len(kind) > len(prefix) && kind[len(prefix)] == '.'
}
