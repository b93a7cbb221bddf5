package telemetry

import "io"

// Event is one structured telemetry event. The JSON shape is stable:
// encoding/json marshals the Str/Num maps with sorted keys, so an
// event always serialises to the same bytes.
//
// Seq is assigned by the Recorder in arrival order; TimeSec is
// simulated (or injected-clock) time — components never stamp wall
// time, per the repo's determinism contract.
type Event struct {
	Seq     uint64             `json:"seq"`
	TimeSec float64            `json:"t,omitempty"`
	Kind    string             `json:"kind"`
	Src     string             `json:"src,omitempty"`
	Str     map[string]string  `json:"str,omitempty"`
	Num     map[string]float64 `json:"num,omitempty"`
}

// Recorder is the bounded ring of events (see Ring): when full,
// recording overwrites the oldest event and counts it as dropped. All
// methods are nil-safe.
type Recorder Ring[Event]

func (r *Recorder) ring() *Ring[Event] { return (*Ring[Event])(r) }

// NewRecorder returns a recorder holding up to capacity events
// (DefaultRingCap when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	return (*Recorder)(NewRing(capacity, func(ev *Event, seq uint64) { ev.Seq = seq }))
}

// Record appends ev, assigning its sequence number. The oldest event
// is overwritten when the ring is full.
func (r *Recorder) Record(ev Event) { r.ring().Add(ev) }

// Events returns a copy of the buffered events, oldest first.
func (r *Recorder) Events() []Event { return r.ring().Since(0) }

// WriteJSONLines writes the buffered events as one JSON object per
// line, oldest first.
func (r *Recorder) WriteJSONLines(w io.Writer) error { return WriteJSONLines(w, r.Events()) }
