package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// DefaultRingCap is the capacity NewRing uses when given none.
const DefaultRingCap = 4096

// Ring is a bounded buffer of items in arrival order: the one ring
// behind the event Recorder and the trace span Buffer. Every item gets
// the next arrival sequence number; when the ring is full, adding
// overwrites the oldest item and counts it as dropped. All methods are
// nil-safe and safe for concurrent use.
type Ring[T any] struct {
	stamp func(item *T, seq uint64)

	mu      sync.Mutex
	buf     []T
	start   int // index of the oldest item
	n       int // live items
	seq     uint64
	dropped uint64
}

// NewRing returns a ring holding up to capacity items (DefaultRingCap
// when capacity <= 0). stamp writes an item's sequence number into it.
func NewRing[T any](capacity int, stamp func(item *T, seq uint64)) *Ring[T] {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Ring[T]{stamp: stamp, buf: make([]T, capacity)}
}

// Add appends item, assigning its sequence number.
func (r *Ring[T]) Add(item T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	r.stamp(&item, r.seq)
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = item
		r.n++
	} else {
		r.buf[r.start] = item
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	}
	r.mu.Unlock()
}

// Since returns a copy of the buffered items with sequence numbers
// greater than seq, oldest first — Since(0) is everything. Items older
// than that which the ring already overwrote are simply absent;
// Dropped tells a scraper how many were lost.
func (r *Ring[T]) Since(seq uint64) []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// The ring holds the consecutive sequence numbers ending at r.seq.
	skip := 0
	if oldest := r.seq - uint64(r.n) + 1; seq >= oldest {
		skip = int(min(seq-oldest+1, uint64(r.n)))
	}
	out := make([]T, r.n-skip)
	for i := range out {
		out[i] = r.buf[(r.start+skip+i)%len(r.buf)]
	}
	return out
}

// Len returns the number of buffered items.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many items were overwritten.
func (r *Ring[T]) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// ServeSince starts the JSON-lines response both ring endpoints
// (/events, /traces) give: it reads the optional ?since=<seq> resume
// parameter and returns the items after it — everything when absent,
// which resumed reports — with the content type and the ring's
// dropped count (under droppedHeader) already set. On a malformed
// parameter it answers 400 itself and returns ok false.
func (r *Ring[T]) ServeSince(w http.ResponseWriter, req *http.Request, droppedHeader string) (items []T, resumed, ok bool) {
	var seq uint64
	if v := req.URL.Query().Get("since"); v != "" {
		var err error
		if seq, err = strconv.ParseUint(v, 10, 64); err != nil {
			http.Error(w, "bad since parameter: "+err.Error(), http.StatusBadRequest)
			return nil, false, false
		}
		resumed = true
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(droppedHeader, strconv.FormatUint(r.Dropped(), 10))
	return r.Since(seq), resumed, true
}

// WriteJSONLines writes items as one JSON object per line.
func WriteJSONLines[T any](w io.Writer, items []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range items {
		if err := enc.Encode(&items[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
