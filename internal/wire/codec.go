package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"goear/internal/accounting"
	"goear/internal/eard"
)

// Payload layouts. "str" is a table string (below), "int" a zig-zag
// varint, "uint" a plain varint, "f64" raw IEEE-754 bits in eight
// big-endian bytes, "n × T" a uint count followed by that many T.
// Every body must be consumed exactly: trailing bytes are an error.
//
//	batch    id str, node str, n × record, n × acct
//	ack      batch_id str, accepted int, duplicate int, replaced int
//	error    message str
//	query    kind str, job str, step str, user str, cursor str,
//	         since f64, limit int
//	result   kind uint8, then per kind (result.go)
//
//	record   job_id str, step_id str, node str, app str, policy str,
//	         time_sec, energy_j, avg_power_w, avg_cpu_ghz, avg_imc_ghz,
//	         avg_cpi, avg_gbs f64
//	acct     v int, job_id str, step_id str, user str, node str,
//	         policy str, phase int, start_sec, end_sec, pkg_j, dram_j,
//	         uncore_j, node_j, avg_cpu_ghz, avg_imc_ghz f64
//
// A str is one uint tag: an even tag t announces a literal of t>>1
// bytes, which follow; an odd tag refers back to entry t>>1 of the
// frame's string table. Every non-empty literal is appended to the
// table as it is read, so the encoder writes each distinct string of
// a frame once and names it by index afterwards; the empty string is
// always the literal tag 0 and never enters the table.

// Smallest possible encodings, which bound a count by the bytes left
// before anything is allocated for it.
const (
	minRecordLen = 5 + 7*8
	minAcctLen   = 1 + 5 + 1 + 8*8
)

// linearTable is how many strings an encoder finds by scanning before
// it builds a map, and how many a decoder holds before its table
// spills to the heap: a batch holds a dozen or two distinct strings, a
// shard's whole view hundreds.
const linearTable = 32

// maxTable is the most strings a map may have indexed and still be kept
// by a connection for its next frame. 896 is what a 1,024-slot map
// holds before it doubles: about 30 KiB at 24 bytes and a control byte
// a slot (go1.24), MaxKept's scale. A fleet-sized reply — 200 node
// names, a 200-record page — fits with room to spare; a map a shard's
// whole view grew past it is dropped, as an outgrown frame buffer is, rather
// than cleared: clearing keeps a map's slots, and every later reply
// would pay to clear them again.
const maxTable = 896

// encoder appends one frame body to buf — or the bodies of one changes
// answer's frames, one after another, its table spanning them
// (stream.go). Its string table is the first n entries of small until
// that is full, the map idx from then on. (An array and a count, not a
// slice of the array: a struct that points into itself is moved to the
// heap.) kept, when not nil, is a
// connection's slot for the map between frames: idx is taken from it
// instead of made, and release puts it back.
type encoder struct {
	buf   []byte
	n     int
	small [linearTable]string
	idx   map[string]int
	kept  *map[string]int
}

func (e *encoder) uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) int(v int)     { e.buf = binary.AppendVarint(e.buf, int64(v)) }
func (e *encoder) f64(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *encoder) str(s string) {
	if s == "" {
		e.buf = append(e.buf, 0)
		return
	}
	if e.idx != nil {
		if i, ok := e.idx[s]; ok {
			e.uint(uint64(i)<<1 | 1)
			return
		}
		e.idx[s] = len(e.idx)
	} else {
		for i, t := range e.small[:e.n] {
			if t == s {
				e.uint(uint64(i)<<1 | 1)
				return
			}
		}
		if e.n < linearTable {
			e.small[e.n] = s
			e.n++
		} else {
			if e.kept != nil && *e.kept != nil {
				e.idx, *e.kept = *e.kept, nil
			} else {
				e.idx = make(map[string]int, 4*linearTable)
			}
			for i, t := range e.small {
				e.idx[t] = i
			}
			e.idx[s] = linearTable
		}
	}
	e.uint(uint64(len(s)) << 1)
	e.buf = append(e.buf, s...)
}

// lastStr makes the bytes appended to buf from at on a str, written as
// str would write them as a string — a reference when the table holds
// them, else a literal, its tag moved in ahead of them — without making
// a string of them. The table does not take them in, so it ends a body's
// strings: a page's cursor, appended straight into the frame.
func (e *encoder) lastStr(at int) {
	lit := e.buf[at:]
	i, ok := 0, false
	switch {
	case len(lit) == 0:
		e.buf = append(e.buf, 0)
		return
	case e.idx != nil:
		i, ok = e.idx[string(lit)]
	default:
		for j, t := range e.small[:e.n] {
			if t == string(lit) {
				i, ok = j, true
				break
			}
		}
	}
	if ok {
		e.buf = e.buf[:at]
		e.uint(uint64(i)<<1 | 1)
		return
	}
	var tag [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tag[:], uint64(len(lit))<<1)
	e.buf = append(e.buf, tag[:n]...)
	copy(e.buf[at+n:], e.buf[at:])
	copy(e.buf[at:], tag[:n])
}

// release ends the frame, or the answer: the map, if it needed one,
// goes back to the connection cleared — a stale entry would become a
// reference the next answer's decoder cannot resolve — unless it grew
// past maxTable.
func (e *encoder) release() {
	if e.kept != nil && e.idx != nil && len(e.idx) <= maxTable {
		clear(e.idx)
		*e.kept = e.idx
	}
}

func (e *encoder) record(r *eard.JobRecord) {
	e.str(r.JobID)
	e.str(r.StepID)
	e.str(r.Node)
	e.str(r.App)
	e.str(r.Policy)
	e.f64(r.TimeSec)
	e.f64(r.EnergyJ)
	e.f64(r.AvgPower)
	e.f64(r.AvgCPU)
	e.f64(r.AvgIMC)
	e.f64(r.AvgCPI)
	e.f64(r.AvgGBs)
}

func (e *encoder) acctRecord(r *accounting.Record) {
	e.int(r.V)
	e.str(r.JobID)
	e.str(r.StepID)
	e.str(r.User)
	e.str(r.Node)
	e.str(r.Policy)
	e.int(r.Phase)
	e.f64(r.StartSec)
	e.f64(r.EndSec)
	e.f64(r.PkgJ)
	e.f64(r.DramJ)
	e.f64(r.UncoreJ)
	e.f64(r.NodeJ)
	e.f64(r.AvgCPUGHz)
	e.f64(r.AvgIMCGHz)
}

func (e *encoder) acctRecords(recs []accounting.Record) {
	e.uint(uint64(len(recs)))
	for i := range recs {
		e.acctRecord(&recs[i])
	}
}

// recordsSizeHint guesses an encoded size so a body is usually built
// in one allocation: the fixed part of every record plus room for a
// batch's worth of first-use strings.
func recordsSizeHint(records, acct int) int {
	return 256 + records*(minRecordLen+8) + acct*(minAcctLen+8)
}

// Literal blocks. A decoded literal is not converted on its own (one
// heap string per node name of a fleet-sized reply) but copied to the
// end of a block and sliced out of it. A block too full for the next
// literal is abandoned to the strings already cut from it, never
// re-copied, and the next one doubles, from firstBlock to maxBlock (a
// literal longer than that gets a block of its own length). A retained
// string therefore pins at most one block of at most maxBlock bytes —
// for a batch or a query, the block the connection state that decoded
// it keeps while later frames fill it — and never the payload.
//
// A batch or a query decoded through the Conn that read it
// (Conn.DecodeBatch, Conn.DecodeQuery) is cut from the block that
// connection's one literal state keeps between frames, and a literal
// equal to one of the last decoded frame's strings is that string,
// copied nowhere: a node's next batch repeats its node, jobs, app and
// policy, an admin's next query its kind, user and job, so a warm
// connection decodes either without allocating. A frame decoded on its
// own starts a block sized from its payload to about what its kind
// spends on first-use strings — a resultShare-th of a result, whose
// rows name many nodes, jobs and users, a frameShare-th of a batch,
// which names one node (70 bytes of strings in 2 KB) — and no block of
// it is larger than what the payload can still hold. A power list,
// whose count is known before its first name, sizes the block its names
// are cut from to the most they can take (reserve), up to maxBlock.
const (
	firstBlock  = 64
	maxBlock    = 4 << 10
	resultShare = 16
	frameShare  = 26
)

// Literals is a block literals are cut from and the size of the next;
// besides the decoder, a client cuts its batch IDs from one.
type Literals struct {
	blk  strings.Builder // the current block
	next int
}

// Cut copies lit to the block and returns it as a string. A literal
// that does not fit starts the next block, of at most room ≥ len(lit) bytes.
func (l *Literals) Cut(lit []byte, room int) string {
	if len(lit) > l.blk.Cap()-l.blk.Len() {
		size := max(l.next, firstBlock, len(lit))
		l.next = min(2*size, maxBlock)
		l.blk.Reset()
		l.blk.Grow(min(size, room))
	}
	start := l.blk.Len()
	l.blk.Write(lit)
	return l.blk.String()[start:]
}

// literalState is what a Conn keeps of the frames it decodes, batches
// and queries alike: the block their literals are cut from and the
// string table of the last one that decoded.
type literalState struct {
	lits Literals
	last [linearTable]string
	n    int
}

// decoder reads one frame body — or, in a ChangesReader, the bodies of
// one changes answer's frames in turn, its table spanning them. Errors
// are sticky: after the first, every read returns a zero value, and
// finish reports it. The string table is the first n entries of small,
// then more. Literals are cut from the literal state of conn, the Conn
// that read the frame when it decodes it, from lits otherwise. A
// decoder is copied only before its first literal (Frame.body returns
// it by value): lits must not be copied once written to.
type decoder struct {
	p     []byte
	off   int
	err   error
	n     int
	small [linearTable]string
	more  []string
	lits  Literals
	conn  *Conn
}

// newDecoder reads payload p, whose first literal block holds a
// share-th of it.
func newDecoder(p []byte, share int) decoder {
	return decoder{p: p, lits: Literals{next: min(maxBlock, len(p)/share)}}
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrPayload}, args...)...)
	}
}

func (d *decoder) left() int { return len(d.p) - d.off }

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 {
		d.fail("bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.p[d.off:])
	if n <= 0 || int64(int(v)) != v {
		d.fail("bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return int(v)
}

func (d *decoder) byte() uint8 {
	if d.err != nil {
		return 0
	}
	if d.left() < 1 {
		d.fail("body cut short at byte %d", d.off)
		return 0
	}
	d.off++
	return d.p[d.off-1]
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.left() < 8 {
		d.fail("float cut short at byte %d", d.off)
		return 0
	}
	v := binary.BigEndian.Uint64(d.p[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

// strBytes reads one str tag. It returns the table string for a
// back-reference, or the literal's bytes for the caller to convert
// (and remember).
func (d *decoder) strBytes() (string, []byte) {
	tag := d.uint()
	if d.err != nil || tag == 0 {
		return "", nil
	}
	if tag&1 == 1 {
		switch i := tag >> 1; {
		case i < uint64(d.n):
			return d.small[i], nil
		case i-linearTable < uint64(len(d.more)):
			return d.more[i-linearTable], nil
		}
		d.fail("string reference %d into a table of %d", tag>>1, d.n+len(d.more))
		return "", nil
	}
	n := tag >> 1
	if n > uint64(d.left()) {
		d.fail("string of %d bytes with %d left", n, d.left())
		return "", nil
	}
	d.off += int(n)
	return "", d.p[d.off-int(n) : d.off]
}

// literal returns lit, which ends at d.off, as a string: one of the
// last frame's when a connection's table holds it, else cut from a
// block — the connection's, which later frames go on filling, made by
// its first literal (a connection that decodes only polls, which carry
// none, has no state), or the frame's own, no larger than what the
// payload can still hold.
func (d *decoder) literal(lit []byte) string {
	if d.conn == nil {
		return d.lits.Cut(lit, len(lit)+d.left())
	}
	if d.conn.lits == nil {
		d.conn.lits = new(literalState)
	}
	w := d.conn.lits
	for _, s := range w.last[:w.n] {
		if s == string(lit) {
			return s
		}
	}
	return w.lits.Cut(lit, math.MaxInt)
}

func (d *decoder) remember(s string) string {
	switch {
	case d.n < linearTable:
		d.small[d.n] = s
		d.n++
	case d.more == nil:
		// A frame that fills small is a dump or a fleet-sized reply:
		// skip the first seven doublings.
		d.more = append(make([]string, 0, 4*linearTable), s)
	default:
		d.more = append(d.more, s)
	}
	return s
}

// reserve readies the table and the literals for n more strings of at
// most size literal bytes in all: the spill array grows once to hold
// them, and when the block in hand cannot take them the next is sized
// to, up to maxBlock.
func (d *decoder) reserve(n, size int) {
	if extra := d.n + n - linearTable; extra > 0 {
		if d.more == nil {
			d.more = make([]string, 0, extra)
		} else {
			d.more = slices.Grow(d.more, extra)
		}
	}
	if size > d.lits.blk.Cap()-d.lits.blk.Len() {
		d.lits.next = min(size, maxBlock)
	}
}

func (d *decoder) str() string {
	s, lit := d.strBytes()
	if lit == nil {
		return s
	}
	return d.remember(d.literal(lit))
}

// kind reads a query kind, returning the package constant for a known
// one so the common case allocates nothing.
func (d *decoder) kind() string {
	s, lit := d.strBytes()
	if lit == nil {
		return s
	}
	for _, k := range resultKinds[1:] {
		if string(lit) == k {
			return d.remember(k)
		}
	}
	return d.remember(d.literal(lit))
}

// count reads an element count and checks that so many elements of at
// least minLen bytes can still follow.
func (d *decoder) count(minLen int) int {
	n := d.uint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.left()/minLen) {
		d.fail("count %d needs at least %d bytes, %d left", n, n*uint64(minLen), d.left())
		return 0
	}
	return int(n)
}

// finish reports the first error met, trailing bytes included, as a
// failure to decode the named thing ("batch" "payload").
func (d *decoder) finish(what, noun string) error {
	if d.err == nil && d.off != len(d.p) {
		d.fail("%d trailing bytes", len(d.p)-d.off)
	}
	if d.err != nil {
		return fmt.Errorf("wire: decode %s %s: %w", what, noun, d.err)
	}
	return nil
}

// resize returns s with length n, reusing its backing array when that
// is large enough.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

func (d *decoder) record(r *eard.JobRecord) {
	r.JobID = d.str()
	r.StepID = d.str()
	r.Node = d.str()
	r.App = d.str()
	r.Policy = d.str()
	r.TimeSec = d.f64()
	r.EnergyJ = d.f64()
	r.AvgPower = d.f64()
	r.AvgCPU = d.f64()
	r.AvgIMC = d.f64()
	r.AvgCPI = d.f64()
	r.AvgGBs = d.f64()
}

// records decodes n × record into into's backing array when it fits.
func (d *decoder) records(into []eard.JobRecord) []eard.JobRecord {
	out := resize(into, d.count(minRecordLen))
	for i := range out {
		d.record(&out[i])
	}
	return out
}

func (d *decoder) acctRecord(r *accounting.Record) {
	r.V = d.int()
	r.JobID = d.str()
	r.StepID = d.str()
	r.User = d.str()
	r.Node = d.str()
	r.Policy = d.str()
	r.Phase = d.int()
	r.StartSec = d.f64()
	r.EndSec = d.f64()
	r.PkgJ = d.f64()
	r.DramJ = d.f64()
	r.UncoreJ = d.f64()
	r.NodeJ = d.f64()
	r.AvgCPUGHz = d.f64()
	r.AvgIMCGHz = d.f64()
}

func (d *decoder) acctRecords(into []accounting.Record) []accounting.Record {
	out := resize(into, d.count(minAcctLen))
	for i := range out {
		d.acctRecord(&out[i])
	}
	return out
}

// The three small bodies have an Append form, for a sender that builds
// them behind the room of a connection's image (Conn.Body); ack and
// query also have an Encode form, the same bytes in a payload of their
// own.

// AppendAck appends a's encoded body, the payload of a TypeAck frame,
// to dst.
func AppendAck(dst []byte, a Ack) []byte {
	e := encoder{buf: dst}
	e.str(a.BatchID)
	e.int(a.Accepted)
	e.int(a.Duplicate)
	e.int(a.Replaced)
	return e.buf
}

// EncodeAck builds a TypeAck frame.
func EncodeAck(a Ack) (Frame, error) {
	return Frame{Type: TypeAck, Payload: AppendAck(make([]byte, 0, len(a.BatchID)+8), a)}, nil
}

// AppendError appends the payload of a TypeError frame to dst.
func AppendError(dst []byte, msg string) []byte {
	e := encoder{buf: dst}
	e.str(msg)
	return e.buf
}

// AppendQuery appends q's encoded body, the payload of a TypeQuery
// frame, to dst.
func AppendQuery(dst []byte, q Query) []byte {
	e := encoder{buf: dst}
	e.str(q.Kind)
	e.str(q.Job)
	e.str(q.Step)
	e.str(q.User)
	e.str(q.Cursor)
	e.f64(q.Since)
	e.int(q.Limit)
	return e.buf
}

// EncodeQuery builds a TypeQuery frame.
func EncodeQuery(q Query) (Frame, error) {
	size := 32 + len(q.Kind) + len(q.Job) + len(q.Step) + len(q.User) + len(q.Cursor)
	return Frame{Type: TypeQuery, Payload: AppendQuery(make([]byte, 0, size), q)}, nil
}

// body starts decoding f's payload, checking the frame type first.
func (f Frame) body(want Type) (decoder, error) {
	if f.Type != want {
		return decoder{}, fmt.Errorf("wire: frame is %s, not %s", f.Type, want)
	}
	return newDecoder(f.Payload, frameShare), nil
}

// AsBatch decodes a TypeBatch frame.
func (f Frame) AsBatch() (Batch, error) {
	var b Batch
	return b, f.DecodeBatch(&b)
}

// DecodeBatch decodes a TypeBatch frame into b, reusing the backing
// arrays of b.Records and b.Acct when they are large enough — a server
// that has stored the previous batch's records by value decodes the
// next one without allocating slices. It is for a frame on its own; a
// connection decodes the batches it reads with Conn.DecodeBatch.
func (f Frame) DecodeBatch(b *Batch) error {
	d, err := f.body(TypeBatch)
	if err != nil {
		return err
	}
	return d.batch(b)
}

// batch decodes a batch body into b.
func (d *decoder) batch(b *Batch) error {
	b.ID = d.str()
	b.Node = d.str()
	b.Records = d.records(b.Records[:0])
	b.Acct = d.acctRecords(b.Acct[:0])
	return d.finish("batch", "payload")
}

// ack decodes a TypeAck frame, but for its batch ID, which it returns
// where it lies in the payload. (The first string of a frame is a
// literal or empty; a reference fails the decode.)
func (f Frame) ack() (id []byte, a Ack, err error) {
	d, err := f.body(TypeAck)
	if err != nil {
		return nil, Ack{}, err
	}
	_, id = d.strBytes()
	a = Ack{Accepted: d.int(), Duplicate: d.int(), Replaced: d.int()}
	return id, a, d.finish("ack", "payload")
}

// AcksBatch reports whether f is a well-formed ack of the batch with
// the given ID. The ID is compared in place: nothing is decoded to a
// string, which is all a sender that holds the ID needs of the ack it
// waits for.
func (f Frame) AcksBatch(id string) bool {
	lit, _, err := f.ack()
	return err == nil && string(lit) == id
}

// AsError decodes a TypeError frame.
func (f Frame) AsError() (ErrorFrame, error) {
	d, err := f.body(TypeError)
	if err != nil {
		return ErrorFrame{}, err
	}
	e := ErrorFrame{Message: d.str()}
	return e, d.finish("error", "payload")
}

// AsQuery decodes a TypeQuery frame. It is for a frame on its own; a
// connection decodes the queries it reads with Conn.DecodeQuery.
func (f Frame) AsQuery() (Query, error) {
	d, err := f.body(TypeQuery)
	if err != nil {
		return Query{}, err
	}
	return d.query()
}

// query decodes a query body.
func (d *decoder) query() (Query, error) {
	q := Query{Kind: d.kind(), Job: d.str(), Step: d.str(), User: d.str(), Cursor: d.str(), Since: d.f64(), Limit: d.int()}
	return q, d.finish("query", "payload")
}
