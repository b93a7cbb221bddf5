package wire

import (
	"encoding/binary"
	"slices"

	"goear/internal/accounting"
	"goear/internal/eard"
)

// idSlack is how much longer than its node a batch ID that comes last
// may be and still fit the head room a BatchBuilder reserves: a
// "<node>/<seq>" ID is at most 21 bytes longer. A longer ID moves the
// records up to make room.
const idSlack = 24

// countRoom is the record-count bytes that room is reserved for: a
// count below 2^21. A larger batch moves its records up as well.
const countRoom = 3

// A builder's first buffer holds, behind the head room, its size in
// records at their smallest encoding with 8 bytes each to spare, and
// literalSlack bytes more: a reporter's records name the same node,
// jobs, app and policy, so past its first few records a string is a
// one-byte reference (24 records and 9 windows of ingest-steady's take
// 2.2 KB of the 2.3 KB a 32-record batch is sized for; a 4-record batch
// 0.3 KB of 0.4).
const literalSlack = 64

// BatchBuilder is a batch encoded as its records arrive: its buffer is
// the batch's image, and a sender that builds its pending batch here
// keeps it in no other form. The buffer starts with HeaderRoom and room
// for the batch's head — ID, node and record count — and the records
// follow, each encoded by Add with the batch's string table. Image puts
// the accounting windows behind the records and writes the head into
// the room, right-aligned, under the ID it is given; the next Add or
// Image first takes the windows back out, so the same records can be
// sent again under a fresh ID, with more records behind them.
//
// The table reserves entry 0 for the ID and entry 1 for the node. A
// record or window string equal to the ID that comes last is therefore
// written as a literal where EncodeBatch, which knows the ID first,
// refers back to it: the one way the two encodings of a batch differ,
// and they decode alike.
type BatchBuilder struct {
	e    encoder
	node string
	size int // the records a fresh buffer is sized for
	base int // where the records start; 0 before the first record
	n    int // records encoded
	// late marks a builder whose ID comes with each Image: entry 0 of
	// its table is the empty string, which matches no string str looks
	// up. With an image out (out), buf and the table hold its windows
	// past the records, which end at mark with the table at markN
	// entries (its map made by then, markMap, or not).
	mark, markN        int
	late, out, markMap bool
}

// NewBatchBuilder returns an empty batch from node whose first buffer
// is sized for records records. Its ID is given at each Image.
func NewBatchBuilder(node string, records int) *BatchBuilder {
	return &BatchBuilder{node: node, late: true, size: records}
}

// Len returns the records added since the builder was last emptied.
func (b *BatchBuilder) Len() int { return b.n }

// Cap returns the bytes of buffer the builder holds.
func (b *BatchBuilder) Cap() int { return cap(b.e.buf) }

// Add encodes one record into the batch.
func (b *BatchBuilder) Add(r *eard.JobRecord) {
	b.ready()
	b.e.record(r)
	b.n++
}

// Image returns the batch — its records, then acct — as an image under
// id, which must not be empty: HeaderRoom bytes of room, then the
// TypeBatch body, what a sender hands to Conn.WriteImage. The image is
// valid until the next Add, Image, Reset or Detach.
func (b *BatchBuilder) Image(id string, acct []accounting.Record) []byte {
	b.ready()
	return b.e.buf[b.seal(id, acct)-HeaderRoom:]
}

// Reset empties the builder for its next batch, which it builds in the
// same buffer unless that has outgrown MaxKept.
func (b *BatchBuilder) Reset() {
	if cap(b.e.buf) > MaxKept {
		b.e.buf = nil
	}
	b.base, b.n, b.out = 0, 0, false
}

// Detach empties the builder and lets go of its buffer: the last image
// is its holder's now, and the next batch is built in a buffer of its
// own.
func (b *BatchBuilder) Detach() {
	b.e.buf = nil
	b.Reset()
}

// ready makes the builder able to take a record: it starts a batch in
// its buffer if none is under way, and takes the last image's windows
// back out if one is out.
func (b *BatchBuilder) ready() {
	if b.base == 0 {
		room := HeaderRoom + litLen(len(b.node)+idSlack) + b.nodeLen("") + countRoom
		b.begin(b.e.buf[:0], "", room, b.size*(minRecordLen+8)+literalSlack)
	}
	if !b.out {
		return
	}
	b.out = false
	b.e.buf = b.e.buf[:b.mark]
	switch {
	case b.e.idx == nil:
		b.e.n = b.markN
	case !b.markMap:
		b.e.idx, b.e.n = nil, b.markN
	default:
		for s, i := range b.e.idx {
			if i >= b.markN {
				delete(b.e.idx, s)
			}
		}
	}
}

// begin starts an empty batch behind dst: room bytes for the head, then
// the records, for which hint more bytes are made ready. The table
// starts with what the head names: id, known first or (late) to come,
// and the node.
func (b *BatchBuilder) begin(dst []byte, id string, room, hint int) {
	b.e.buf = slices.Grow(dst, room+hint)[:len(dst)+room]
	b.base, b.n, b.out = len(b.e.buf), 0, false
	b.e.n, b.e.idx = 0, nil
	if b.late || id != "" {
		b.e.small[0] = id
		b.e.n = 1
	}
	if b.node != "" && (b.late || b.node != id) {
		b.e.small[b.e.n] = b.node
		b.e.n++
	}
}

// headLen returns the bytes of a head naming id over n records.
func (b *BatchBuilder) headLen(id string, n int) int {
	return litLen(len(id)) + b.nodeLen(id) + uvarintLen(uint64(n))
}

// nodeLen returns the bytes of the node in a head naming id: a literal,
// or one tag for the empty string or a reference to the ID.
func (b *BatchBuilder) nodeLen(id string) int {
	if b.node == "" || (!b.late && b.node == id) {
		return 1
	}
	return litLen(len(b.node))
}

// seal appends acct behind the records, writes the head naming id so
// that it ends where the records start, and returns where it starts.
func (b *BatchBuilder) seal(id string, acct []accounting.Record) int {
	h := b.headLen(id, b.n)
	if b.late {
		if free := b.base - HeaderRoom; h > free {
			// A head past the room: move the records up.
			d := h - free
			b.e.buf = append(b.e.buf, make([]byte, d)...)
			copy(b.e.buf[b.base+d:], b.e.buf[b.base:])
			b.base += d
		}
		b.out, b.mark, b.markN, b.markMap = true, len(b.e.buf), b.e.n, b.e.idx != nil
		if b.e.idx != nil {
			b.markN = len(b.e.idx)
		}
	}
	b.e.acctRecords(acct)
	start := b.base - h
	at := start + putStr(b.e.buf[start:], id)
	if b.node != "" && !b.late && b.node == id {
		b.e.buf[at] = 1 // a reference to entry 0
		at++
	} else {
		at += putStr(b.e.buf[at:], b.node)
	}
	binary.PutUvarint(b.e.buf[at:], uint64(b.n))
	return start
}

// litLen returns the bytes of an n-byte literal str.
func litLen(n int) int { return uvarintLen(uint64(n)<<1) + n }

// putStr writes s as a literal str to dst and returns the bytes written.
func putStr(dst []byte, s string) int {
	n := binary.PutUvarint(dst, uint64(len(s))<<1)
	return n + copy(dst[n:], s)
}

// appendBatch appends b's encoded body to dst and returns the extended
// slice: the payload of a TypeBatch frame. A sender that keeps dst
// across batches encodes without allocating.
func appendBatch(dst []byte, bt Batch) []byte {
	b := BatchBuilder{node: bt.Node}
	b.begin(dst, bt.ID, b.headLen(bt.ID, len(bt.Records)), recordsSizeHint(len(bt.Records), len(bt.Acct)))
	for i := range bt.Records {
		b.Add(&bt.Records[i])
	}
	b.seal(bt.ID, bt.Acct)
	return b.e.buf
}

// BatchImage encodes b as an image (HeaderRoom bytes of room, then the
// body) in buf's backing array when that is large enough: what a sender
// hands to Conn.WriteImage, as often as it takes.
func BatchImage(buf []byte, b Batch) []byte {
	buf = slices.Grow(buf[:0], HeaderRoom+recordsSizeHint(len(b.Records), len(b.Acct)))
	return appendBatch(buf[:HeaderRoom], b)
}

// EncodeBatch builds a TypeBatch frame. The error is always nil; the
// signature is the one every Encode constructor shares.
func EncodeBatch(b Batch) (Frame, error) {
	return Frame{Type: TypeBatch, Payload: appendBatch(nil, b)}, nil
}
