package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"goear/internal/telemetry"
)

// HexID is a 64-bit identifier that serialises as 16 lowercase hex
// digits, so trace and span IDs are grep-able in JSON-lines output
// and CI logs.
type HexID uint64

// String formats the ID as 16 hex digits.
func (h HexID) String() string { return fmt.Sprintf("%016x", uint64(h)) }

// MarshalJSON encodes the ID as a hex string.
func (h HexID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + h.String() + `"`), nil
}

// UnmarshalJSON decodes a hex string ID.
func (h *HexID) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := parseID(s)
	if err != nil {
		return err
	}
	*h = HexID(v)
	return nil
}

// parseID parses a hex trace or span ID as printed by HexID.
func parseID(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad id %q: %w", s, err)
	}
	return v, nil
}

// Attr is one span attribute.
type Attr struct {
	Key   string
	Value string
}

// Attrs is a span's attribute list. It marshals as a JSON object with
// sorted keys — the same bytes a map would produce — but is backed by
// a small slice so attaching attributes on the hot path costs one
// allocation, not a map.
type Attrs []Attr

// MarshalJSON encodes the attributes as an object with sorted keys.
func (a Attrs) MarshalJSON() ([]byte, error) {
	kv := append(Attrs(nil), a...)
	sort.Slice(kv, func(i, j int) bool { return kv[i].Key < kv[j].Key })
	var b []byte
	b = append(b, '{')
	for i, at := range kv {
		if i > 0 {
			b = append(b, ',')
		}
		k, err := json.Marshal(at.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(at.Value)
		if err != nil {
			return nil, err
		}
		b = append(b, k...)
		b = append(b, ':')
		b = append(b, v...)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON decodes an attribute object into a key-sorted list.
func (a *Attrs) UnmarshalJSON(data []byte) error {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	out := make(Attrs, 0, len(m))
	for k, v := range m {
		out = append(out, Attr{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	*a = out
	return nil
}

// Span is one recorded (ended) span. The JSON shape is stable: the
// attribute list marshals with sorted keys, so a span always
// serialises to the same bytes. Seq is buffer-local arrival order and
// is zeroed in canonical exports, which are sorted by content instead.
type Span struct {
	Seq    uint64  `json:"seq,omitempty"`
	Trace  HexID   `json:"trace"`
	ID     HexID   `json:"span"`
	Parent HexID   `json:"parent,omitempty"`
	Kind   string  `json:"kind"`
	Src    string  `json:"src,omitempty"`
	Start  float64 `json:"start,omitempty"`
	End    float64 `json:"end,omitempty"`
	Attrs  Attrs   `json:"attrs,omitempty"`
}

// DefaultBufferCap is the ring capacity NewBuffer(0) uses.
const DefaultBufferCap = telemetry.DefaultRingCap

// Buffer is the bounded ring of ended spans, the trace-side sibling of
// telemetry.Recorder over the same telemetry.Ring: recording
// overwrites the oldest span when full and counts it as dropped. All
// methods are nil-safe.
type Buffer telemetry.Ring[Span]

func (b *Buffer) ring() *telemetry.Ring[Span] { return (*telemetry.Ring[Span])(b) }

// NewBuffer returns a buffer holding up to capacity spans
// (DefaultBufferCap when capacity <= 0).
func NewBuffer(capacity int) *Buffer {
	return (*Buffer)(telemetry.NewRing(capacity, func(s *Span, seq uint64) { s.Seq = seq }))
}

// record appends one ended span, assigning its sequence number.
func (b *Buffer) record(s Span) { b.ring().Add(s) }

// Spans returns a copy of the buffered spans in arrival order.
func (b *Buffer) Spans() []Span { return b.ring().Since(0) }

// Len returns the number of buffered spans.
func (b *Buffer) Len() int { return b.ring().Len() }

// Dropped returns how many spans were overwritten.
func (b *Buffer) Dropped() uint64 { return b.ring().Dropped() }

// Canonical returns the buffered spans in their canonical order —
// sorted by (trace, parent, kind, span) with arrival sequence zeroed.
// Arrival order depends on goroutine scheduling; canonical order
// depends only on span content, so two runs that produce the same
// spans render byte-identical canonical exports whatever the worker
// count or shard placement.
func (b *Buffer) Canonical() []Span { return canonical(b.Spans()) }

// canonical turns arrival-ordered spans into the canonical export, in
// place.
func canonical(spans []Span) []Span {
	for i := range spans {
		spans[i].Seq = 0
	}
	sortCanonical(spans)
	return spans
}

// sortCanonical sorts spans in place by (trace, parent, kind, span).
func sortCanonical(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Parent != b.Parent {
			return a.Parent < b.Parent
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.ID < b.ID
	})
}

// WriteJSONLines writes spans as one JSON object per line.
func WriteJSONLines(w io.Writer, spans []Span) error { return telemetry.WriteJSONLines(w, spans) }
