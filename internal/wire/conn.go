package wire

import (
	"errors"
	"fmt"
	"io"

	"goear/internal/telemetry/trace"
)

// MaxKept is the largest buffer a Conn keeps between frames, on either
// side. Batches, acks, pages, power lists, generation polls and every
// part of a changes answer fit (a whole view streams in parts cut to
// it, AppendChanges), so a peer that stays — a reporter, an admin tool,
// a root's pooled connection — is served without allocating, whatever
// the size of the view it reads. Only a frame of a one-frame kind past
// it, or a single record that is, is garbage once handled: a few
// hundred idle connections must not each pin the largest frame they
// ever carried.
const MaxKept = 32 << 10

// firstBuf is the size a Conn's buffers start at: an ack, an error, a
// poll and its answer fit, headers and all.
const firstBuf = 64

// Conn is one connection's framing state: the transport, one read
// buffer, one write buffer, the encoder's string table, which a
// changes answer keeps across its parts, and the literal block and last
// string table of the batches and queries it decodes. It is how a
// connection that carries more than one frame moves them — a frame
// read is one transport Read when the bytes are there, a frame sent is
// one Write — and it allocates only while its buffers grow towards the
// frames it carries. The state is not the connection: Reset points it
// at the next transport, buffers and literal state kept, so a client
// keeps one across redials and a server recycles one across the
// connections it serves. A Conn is not safe for concurrent use and must not be copied
// once it has read; a zero Conn is ready for Reset.
type Conn struct {
	// MaxPayload caps the payload of every frame read or sent; <= 0
	// means DefaultMaxPayload.
	MaxPayload int

	t io.ReadWriter

	// rbuf[r:w] is what the transport has delivered and no frame has
	// returned yet; rbuf never outgrows MaxKept. rerr is the transport's
	// read error, reported once the bytes that arrived before it are
	// used up.
	rbuf []byte
	r, w int
	rerr error
	// first is the read buffer until a frame outgrows it: a reporter
	// reads nothing but acks, and lives, in the worst case, for one.
	first [firstBuf]byte

	// wbuf is the image buffer Body hands out, kept while small.
	wbuf []byte
	// strs is the string table AppendResult's encoder indexes a
	// fleet-sized reply in: empty between answers, kept while small.
	strs map[string]int
	// streamed is the payload bytes of the parts the last AppendChanges
	// sent ahead of the image it returned.
	streamed int
	// lits is the literal state of the batches and queries DecodeBatch
	// and DecodeQuery decode, made by the first literal: a Conn that
	// decodes none — a reporter's, a root's shard connection — or only
	// queries without one — a shard's end of a root's polls — carries the
	// pointer alone.
	lits *literalState
}

// Reset points the state at a new transport — nil to let go of the last
// one — and forgets whatever that one had delivered ahead of its frames.
// The buffers stay.
func (c *Conn) Reset(t io.ReadWriter) {
	c.t, c.r, c.w, c.rerr = t, 0, 0, nil
}

// Read returns the next frame, refusing payloads larger than
// MaxPayload. The frame's payload is the connection's read buffer: it
// is valid until the next Read and no longer. Whatever the transport
// delivers along with the bytes asked for — the rest of the frame, the
// frame after it — is kept and not asked for again, so a request or a
// reply that arrives whole costs one transport Read. A frame too large
// for the kept buffer is read into a payload of its own, sized as the
// bytes arrive (a length prefix buys no memory). Errors are ReadFrame's:
// io.EOF between frames, a wrapped io.ErrUnexpectedEOF inside one.
func (c *Conn) Read() (Frame, error) {
	if c.r == c.w {
		c.r, c.w = 0, 0
	}
	if err := c.fill(headerLen); err != nil {
		if errors.Is(err, io.EOF) {
			if c.r == c.w {
				return Frame{}, io.EOF
			}
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("wire: read header: %w", err)
	}
	t, traced, n, err := parseHeader(c.rbuf[c.r:c.r+headerLen], c.MaxPayload)
	if err != nil {
		return Frame{}, err
	}
	head := headerLen
	var tc trace.Context
	if traced {
		head += traceBlockLen
		if err := c.fill(head); err != nil {
			return Frame{}, fmt.Errorf("wire: read trace block: %w", cutShort(err))
		}
		if tc, err = parseTrace(c.rbuf[c.r+headerLen : c.r+head]); err != nil {
			return Frame{}, err
		}
	}
	var payload []byte
	if head+n <= MaxKept {
		if err = c.fill(head + n); err == nil {
			// Capped, so that appending to the payload cannot reach the
			// bytes read ahead behind it.
			payload = c.rbuf[c.r+head : c.r+head+n : c.r+head+n]
			c.r += head + n
		}
	} else {
		c.r += head
		payload, err = readPayload((*buffered)(c), n)
	}
	if err != nil {
		return Frame{}, fmt.Errorf("wire: read payload: %w", cutShort(err))
	}
	return Frame{Type: t, Payload: payload, Trace: tc}, nil
}

// DecodeBatch is Frame.DecodeBatch for a batch frame c has read, with
// the literal state the connection keeps between frames: a literal
// equal to one of the last decoded frame's strings is that string, and
// any other is cut from the connection's block, which later frames go
// on filling. A warm connection that carries one node's batches decodes
// the next without allocating, but for a new block now and then. The
// strings stay valid after the next Read, as Frame.DecodeBatch's do; a
// batch that fails to decode leaves the last frame's table as it was.
func (c *Conn) DecodeBatch(f Frame, b *Batch) error {
	d, err := c.warmBody(f, TypeBatch)
	if err != nil {
		return err
	}
	if err := d.batch(b); err != nil {
		return err
	}
	c.keep(&d)
	return nil
}

// DecodeQuery is Frame.AsQuery for a query frame c has read, through
// the literal state DecodeBatch decodes with: an admin's next page
// names the kind, user and job its last did, and its new cursor is cut
// from the connection's block, so a warm connection decodes it without
// allocating. A query that fails to decode leaves the last frame's
// table as it was.
func (c *Conn) DecodeQuery(f Frame) (Query, error) {
	d, err := c.warmBody(f, TypeQuery)
	if err != nil {
		return Query{}, err
	}
	q, err := d.query()
	if err == nil {
		c.keep(&d)
	}
	return q, err
}

// warmBody starts decoding f's payload with the connection's literal
// state.
func (c *Conn) warmBody(f Frame, want Type) (decoder, error) {
	d, err := f.body(want)
	d.conn = c
	return d, err
}

// keep makes the table of a frame d decoded the one the connection's
// next frame meets, when it has a literal state.
func (c *Conn) keep(d *decoder) {
	if c.lits != nil {
		c.lits.last, c.lits.n = d.small, d.n
	}
}

// Trim lets go of a read buffer grown past the first, unless bytes read
// ahead are waiting in it: the next frame that needs more grows it
// again. A connection that has read a rare large answer — a root's
// whole view of a shard — and stays open keeps no more than its first
// buffer.
func (c *Conn) Trim() {
	if c.r == c.w && len(c.rbuf) > firstBuf {
		c.rbuf, c.r, c.w = nil, 0, 0
	}
}

// fill reads from the transport until n bytes, at most MaxKept, are
// buffered, asking every time for as much as the buffer has room for.
// On an error fewer are.
func (c *Conn) fill(n int) error {
	if c.r+n > len(c.rbuf) {
		// The frame does not fit behind r: move what has arrived of it
		// to the front, of a larger buffer if it takes one.
		buf := c.rbuf
		if n > len(buf) {
			if buf = c.first[:]; n > len(buf) {
				buf = make([]byte, n)
			}
		}
		c.w = copy(buf, c.rbuf[c.r:c.w])
		c.r, c.rbuf = 0, buf
	}
	for c.w-c.r < n {
		if c.rerr != nil {
			err := c.rerr
			c.rerr = nil
			return err
		}
		m, err := c.t.Read(c.rbuf[c.w:])
		c.w += m
		c.rerr = err
	}
	return nil
}

// buffered is a Conn as the io.Reader of its incoming bytes: those read
// ahead first, the transport's after them. It is how a payload too
// large to keep is read (a named type, so that handing it to
// readPayload converts a pointer and allocates nothing).
type buffered Conn

func (b *buffered) Read(p []byte) (int, error) {
	if b.r < b.w {
		n := copy(p, b.rbuf[b.r:b.w])
		b.r += n
		return n, nil
	}
	if b.rerr != nil {
		err := b.rerr
		b.rerr = nil
		return 0, err
	}
	return b.t.Read(p)
}

// WriteImage sends image — HeaderRoom bytes of room, then a t frame's
// body — as one frame carrying tc: the header, and the trace block of a
// valid tc, are stamped into the room where they end at the body, and
// the frame leaves in one Write from where it begins. Nothing of image
// is kept and nothing of it but the room is written to, so a body that
// is sent again — a retry, a journal entry's replay under a fresh trace
// context — is sent from the same image. A body larger than MaxPayload
// is refused.
func (c *Conn) WriteImage(t Type, tc trace.Context, image []byte) error {
	n := len(image) - HeaderRoom
	if err := checkOutgoing(t, n, c.MaxPayload); err != nil {
		return err
	}
	start := stamp(image[:HeaderRoom], t, tc, n)
	if _, err := c.t.Write(image[start:]); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// Body returns the connection's own image, emptied down to its room:
// append one frame body and hand the result to Send. The bytes are the
// connection's until then.
func (c *Conn) Body() []byte {
	if cap(c.wbuf) < HeaderRoom {
		c.wbuf = make([]byte, HeaderRoom, firstBuf)
	}
	return c.wbuf[:HeaderRoom]
}

// Send is WriteImage for an image grown from Body, which the connection
// takes back for its next frame — unless it has outgrown MaxKept: then
// the connection keeps the buffer it had, and the image is garbage once
// written.
func (c *Conn) Send(t Type, tc trace.Context, image []byte) error {
	if cap(image) <= MaxKept {
		c.wbuf = image
	}
	return c.WriteImage(t, tc, image)
}
