package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry/trace"
)

// A changes answer streams. Its elements are cut into frames at record
// boundaries, each at most min(MaxKept, the sender's limit) with its
// header room, so every frame passes through both connections' kept
// buffers: zero or more changes_part frames, numbered from 0, closed by
// one changes frame. A part and the closing frame have the changes
// body's three counted sections — node reports, accounting records,
// powers — of which the ones a cut falls between are empty. A part ends
// with its number, and the closing frame of an answer that has parts
// with their count, so a part lost, repeated or out of place is refused.
// The frames share one string table, so a literal crosses once per
// answer.
//
// A frame is cut before an element whose largest possible encoding
// would take it past the limit, so it may end up to an element's worth
// short of it. An answer cut nowhere is the changes frame alone, byte
// for byte what a one-frame encoder wrote. A single element too large
// for a frame of its own is sent past the kept size, up to the limit,
// and refused beyond it.

// ErrStreamCut marks a changes answer a frame of which failed on the
// transport after a byte of the answer may have left: the connection is
// out of step, and nothing more is to be sent on it.
var ErrStreamCut = errors.New("wire: a changes answer was cut off on the transport")

var (
	changesCode = uint8(slices.Index(resultKinds[:], QueryChanges))
	partCode    = uint8(slices.Index(resultKinds[:], ChangesPart))
)

// Bounds on one element's encoding, checked before it is encoded: a
// str is at most its bytes behind a 32-bit tag, an int at most a full
// varint.
const (
	strRoom = binary.MaxVarintLen32
	intRoom = binary.MaxVarintLen64
)

// uvarintLen is the encoded length of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func recordRoom(r *eard.JobRecord) int {
	return 5*strRoom + len(r.JobID) + len(r.StepID) + len(r.Node) + len(r.App) + len(r.Policy) + 7*8
}

func acctRoom(r *accounting.Record) int {
	return 2*intRoom + 5*strRoom + len(r.JobID) + len(r.StepID) + len(r.User) + len(r.Node) + len(r.Policy) + 8*8
}

// changesWriter cuts one changes answer into frames on its connection.
// The frame being filled is e.buf from head on: the kind byte, the
// finished sections of this frame, then the elements of section sec
// from start on, n of them, whose count goes in front of them once the
// section ends in this frame.
type changesWriter struct {
	c     *Conn
	e     encoder
	head  int    // where the frame's payload begins in e.buf
	limit int    // the most payload bytes a frame holds
	seq   uint64 // parts sent
	sec   int    // 0 node reports, 1 accounting records, 2 powers
	start int
	n     int
	elems int // elements in this frame, every section
	err   error
}

// AppendChanges encodes ch as a changes answer with c's string table:
// every full frame is sent on c as a changes_part as soon as the next
// element would not fit, and the closing changes frame is appended to
// dst — c's Body, the image every part is built in too — for the
// caller to Send. A DB or AcctStore ch carries is pinned when the answer
// starts, walked from its pinned rows, and released once the last of
// its records is encoded: the answer reads the stores as they were when
// it was asked, and no lock is held while a frame is written. A nil c
// sends nothing: an answer that needs more than one frame fails. On
// error the returned image is not to be sent, and on ErrStreamCut
// nothing more is to be sent on c.
func (c *Conn) AppendChanges(dst []byte, ch *Changes) ([]byte, error) {
	w := changesWriter{c: c, e: encoder{buf: append(dst, changesCode), kept: c.table()}, head: len(dst), limit: MaxKept - HeaderRoom}
	if c != nil {
		c.streamed = 0
		w.limit = min(w.limit, c.limit())
	}
	w.start = len(w.e.buf)
	// Both stores are pinned at once, so the answer is one reading of
	// them, and each is let go as soon as its records are encoded.
	var recs eard.Pinned
	var acct accounting.Pinned
	if ch.DB != nil {
		recs = ch.DB.Pin()
	}
	if ch.AcctStore != nil {
		acct = ch.AcctStore.Pin()
	}
	if ch.DB != nil {
		recs.Walk(w.record)
		recs.Release()
	} else {
		for i := range ch.Records {
			w.record(&ch.Records[i])
		}
	}
	w.next()
	if ch.AcctStore != nil {
		acct.Walk(w.acctRecord)
		acct.Release()
	} else {
		for i := range ch.Acct {
			w.acctRecord(&ch.Acct[i])
		}
	}
	w.next()
	for _, np := range ch.Powers {
		if w.fits(strRoom + len(np.Node) + 8) {
			w.e.str(np.Node)
			w.e.f64(np.PowerW)
		}
	}
	w.end()
	if w.seq > 0 {
		w.e.uint(w.seq)
	}
	w.e.release()
	return w.e.buf, w.err
}

// limit is the connection's payload limit.
func (c *Conn) limit() int {
	if c.MaxPayload <= 0 {
		return DefaultMaxPayload
	}
	return c.MaxPayload
}

// Streamed reports the payload bytes of the parts the last
// AppendChanges sent on c ahead of the image it returned.
func (c *Conn) Streamed() int { return c.streamed }

func (w *changesWriter) record(r *eard.JobRecord) {
	if w.fits(recordRoom(r)) {
		w.e.record(r)
	}
}

func (w *changesWriter) acctRecord(r *accounting.Record) {
	if w.fits(acctRoom(r)) {
		w.e.acctRecord(r)
	}
}

// fits makes room in the frame for an element of at most room bytes and
// counts it in, or reports false after an error. An element that would
// take the frame past the limit goes to the next one, unless it is the
// frame's first.
func (w *changesWriter) fits(room int) bool {
	if w.err != nil {
		return false
	}
	if w.size(room) > w.limit && w.elems > 0 {
		if w.send(); w.err != nil {
			return false
		}
	}
	if need := w.head + w.size(room); need > cap(w.e.buf) {
		w.e.buf = slices.Grow(w.e.buf, max(need, w.head+w.limit)-len(w.e.buf))
	}
	w.n++
	w.elems++
	return true
}

// size is the payload the frame would have as a part were an element of
// at most room bytes its last: with its section's count, a zero count
// for each section after it, and its number.
func (w *changesWriter) size(room int) int {
	return len(w.e.buf) - w.head + room + uvarintLen(uint64(w.n+1)) + 2 - w.sec + uvarintLen(w.seq)
}

// next ends the current section and starts the one after it.
func (w *changesWriter) next() {
	w.count()
	w.sec++
	w.start, w.n = len(w.e.buf), 0
}

// count puts the current section's count in front of its elements.
func (w *changesWriter) count() {
	var tmp [binary.MaxVarintLen64]byte
	w.e.buf = slices.Insert(w.e.buf, w.start, binary.AppendUvarint(tmp[:0], uint64(w.n))...)
}

// end closes the frame: the count of its section and an empty one for
// each after it.
func (w *changesWriter) end() {
	w.count()
	for s := w.sec + 1; s < 3; s++ {
		w.e.buf = append(w.e.buf, 0)
	}
}

// send ends the frame as the next part, sends it, and starts the next
// frame at the current section.
func (w *changesWriter) send() {
	if w.c == nil {
		w.err = errors.New("wire: a changes answer of more than one frame needs a connection to stream on")
		return
	}
	w.end()
	w.e.uint(w.seq)
	w.e.buf[w.head] = partCode
	if err := w.c.Send(TypeResult, trace.Context{}, w.e.buf); err != nil {
		// A part past the limit is refused before a byte of it is
		// written; any other failure may leave a part half sent.
		w.err = err
		if !errors.Is(err, ErrTooLarge) {
			w.err = fmt.Errorf("%w: %w", ErrStreamCut, err)
		}
		return
	}
	w.c.streamed += len(w.e.buf) - w.head
	w.seq++
	w.e.buf = append(w.c.Body(), changesCode)
	w.head = HeaderRoom
	for range w.sec {
		w.e.buf = append(w.e.buf, 0)
	}
	w.start, w.n, w.elems = len(w.e.buf), 0, 0
}

// ChangesReader decodes one changes answer a frame at a time, with one
// string table across its frames, calling back for each element: every
// node report, then every accounting record, then every node power. The
// zero value is ready for an answer's first frame; one reader serves one
// answer and must not be copied once used.
type ChangesReader struct {
	d      decoder
	seq    uint64
	begun  bool
	closed bool
}

// Apply decodes the next frame of the answer, r, and reports whether it
// closed the answer. A frame of another kind, a part out of sequence and
// any frame after the closing one are refused, as is a malformed body —
// after the functions have seen the elements before the fault — and so
// is every frame after a refusal. It stops at the first error a function
// returns and returns it.
func (s *ChangesReader) Apply(r Result, rec func(eard.JobRecord) error, acct func(accounting.Record) error, power func(NodePower) error) (bool, error) {
	d := &s.d
	switch {
	case r.Kind != QueryChanges && r.Kind != ChangesPart:
		return false, fmt.Errorf("wire: decode %s result: not a frame of a %s answer", r.Kind, QueryChanges)
	case s.closed:
		d.fail("a %s frame after the answer closed", r.Kind)
	case !s.begun:
		d.lits.next = min(maxBlock, len(r.Data)/resultShare)
		s.begun = true
	}
	if d.err != nil {
		return false, d.finish(r.Kind, "result")
	}
	d.p, d.off = r.Data, 0
	var jr eard.JobRecord
	for n := d.count(minRecordLen); n > 0 && d.err == nil; n-- {
		if d.record(&jr); d.err == nil {
			if err := rec(jr); err != nil {
				return false, err
			}
		}
	}
	var ar accounting.Record
	for n := d.count(minAcctLen); n > 0 && d.err == nil; n-- {
		if d.acctRecord(&ar); d.err == nil {
			if err := acct(ar); err != nil {
				return false, err
			}
		}
	}
	for n := d.count(minNodePowerLen); n > 0 && d.err == nil; n-- {
		if np := (NodePower{Node: d.str(), PowerW: d.f64()}); d.err == nil {
			if err := power(np); err != nil {
				return false, err
			}
		}
	}
	if r.Kind == ChangesPart || s.seq > 0 {
		if seq := d.uint(); d.err == nil && seq != s.seq {
			d.fail("%s %d where %d was due", r.Kind, seq, s.seq)
		}
		s.seq++
	}
	if err := d.finish(r.Kind, "result"); err != nil {
		return false, err
	}
	s.closed = r.Kind == QueryChanges
	return s.closed, nil
}
