// Package wire is the framed protocol spoken between EAR's node-side
// reporting clients and the database daemon (package eardbd), and the
// one serialisation of the ingest path: the same bytes travel on the
// socket, sit in the client's spill journal and carry the shard views
// a federation root merges. EAR's real deployment streams job
// signatures from every node daemon to EARDBD over plain sockets; this
// codec reproduces that surface with a length-prefixed, versioned
// binary header and fixed-layout binary bodies.
//
// Every frame is
//
//	magic   uint32  "EARW"
//	version uint8   protocol version, currently 2
//	type    uint8   frame type (batch, ack, error, query, result)
//	flags   uint16  FlagTrace or zero; other bits reserved
//	length  uint32  payload byte count
//	[trace] 18 bytes, present iff FlagTrace (see below)
//	payload [length]byte, laid out per frame type (codec.go)
//
// all big-endian. Decoding is defensive: bad magic, unknown versions,
// unknown types, oversized lengths and truncated payloads are errors,
// never panics — the daemon must survive arbitrary bytes on its
// listening socket — and a length prefix buys no memory until the
// bytes it promises arrive.
//
// FlagTrace marks that an 18-byte trace context block sits between
// the header and the payload —
//
//	ctx version uint8   trace block version, currently 1
//	ctx flags   uint8   trace flags, carried verbatim
//	trace id    uint64  the request's trace identifier (non-zero)
//	span id     uint64  the sender's span, parent of the receiver's
//
// so a batch or query can be followed across processes as one span
// tree. The block is outside the payload: re-stamping a journaled
// frame's context on replay never touches its body.
//
// Payload bodies are built from four primitives: unsigned and
// zig-zag signed varints (encoding/binary's), float64 as its raw
// IEEE-754 bits in eight big-endian bytes — so a value crosses any
// number of hops bit for bit, -0, subnormals and all, and byte-identity
// of every aggregate holds by construction — and strings through a
// frame-scoped table: a string's first use in a frame carries its
// bytes, every later use is a varint back-reference. Nothing is shared
// across frames, so every frame (and every journal entry) decodes on
// its own.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry/trace"
)

// Magic identifies a goear wire frame ("EARW").
const Magic uint32 = 0x45415257

// Version is the protocol version this package speaks. Decoding a
// frame with any other version fails with ErrVersion: version skew is
// surfaced to the peer instead of being misparsed. Version 1 carried
// JSON payloads; it has no remaining speakers.
const Version uint8 = 2

// headerLen is the fixed frame header size in bytes.
const headerLen = 12

// FlagTrace marks a frame carrying a trace context block between the
// header and the payload. All other flag bits stay reserved-must-be-
// zero.
const FlagTrace uint16 = 0x0001

// traceBlockLen is the trace context block size in bytes.
const traceBlockLen = 18

// traceBlockVersion is the trace block layout this package speaks.
// The block is versioned independently of the frame header so the
// context can grow (baggage, sampling state) without a protocol
// version bump that would sever untraced peers.
const traceBlockVersion uint8 = 1

// DefaultMaxPayload bounds a frame payload unless the caller chooses
// its own limit. One megabyte comfortably holds the largest record
// batch a client may send while keeping a malicious length prefix from
// ballooning server memory. It is also the most ReadFrame allocates
// ahead of the bytes actually arriving, whatever the limit.
const DefaultMaxPayload = 1 << 20

// Type enumerates the frame kinds.
type Type uint8

const (
	// TypeBatch carries a Batch of job records, client to server.
	TypeBatch Type = iota + 1
	// TypeAck acknowledges a batch, server to client.
	TypeAck
	// TypeError reports a protocol or validation failure.
	TypeError
	// TypeQuery asks the server for a snapshot (stats, aggregate, ...).
	TypeQuery
	// TypeResult carries a query response.
	TypeResult

	typeEnd // one past the last valid type
)

func (t Type) String() string {
	switch t {
	case TypeBatch:
		return "batch"
	case TypeAck:
		return "ack"
	case TypeError:
		return "error"
	case TypeQuery:
		return "query"
	case TypeResult:
		return "result"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Decoding error values, matchable with errors.Is.
var (
	ErrMagic    = errors.New("wire: bad magic")
	ErrVersion  = errors.New("wire: protocol version skew")
	ErrType     = errors.New("wire: unknown frame type")
	ErrFlags    = errors.New("wire: reserved flags set")
	ErrTooLarge = errors.New("wire: frame exceeds payload limit")
	ErrTrace    = errors.New("wire: malformed trace context block")
	// ErrPayload marks a payload that is not a well-formed body of its
	// frame type: a count or length past the bytes left, a string
	// back-reference past the table, trailing bytes.
	ErrPayload = errors.New("wire: malformed payload")
)

// Frame is one decoded frame: a type, its encoded body, and the
// optional trace context it rode with (zero Context = untraced).
type Frame struct {
	Type    Type
	Payload []byte
	Trace   trace.Context
}

// HeaderRoom is the bytes a frame needs in front of its payload at
// most: the header and a trace block. An image — how this package names
// a frame body with that much room before it — is stamped in place and
// leaves in one write, with no copy (Conn.WriteImage).
const HeaderRoom = headerLen + traceBlockLen

// headPool recycles header scratch for the package-level WriteFrame and
// ReadFrame, which have no connection to keep it in: a stack array
// would escape through the io.Writer/io.Reader call, costing every
// frame written or read one allocation.
var headPool = sync.Pool{New: func() any { return new([HeaderRoom]byte) }}

// checkOutgoing refuses a frame this side must not send: an unknown
// type, or an n-byte payload past maxPayload (<= 0 means
// DefaultMaxPayload), so a misconfigured sender fails locally rather
// than being dropped by its peer.
func checkOutgoing(t Type, n, maxPayload int) error {
	if t == 0 || t >= typeEnd {
		return fmt.Errorf("%w: %d", ErrType, uint8(t))
	}
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if n > maxPayload {
		return fmt.Errorf("%w: %d bytes > limit %d", ErrTooLarge, n, maxPayload)
	}
	return nil
}

// stamp writes the header of a t frame with an n-byte payload into
// room, the HeaderRoom bytes that end where the payload starts, and
// returns where in room the frame begins. A valid tc puts its trace
// block between header and payload and the frame begins at 0; an
// untraced frame's header sits directly before the payload,
// traceBlockLen bytes in.
func stamp(room []byte, t Type, tc trace.Context, n int) int {
	start, flags := traceBlockLen, uint16(0)
	if tc.Valid() {
		start, flags = 0, FlagTrace
		blk := room[headerLen:HeaderRoom]
		blk[0] = traceBlockVersion
		blk[1] = tc.Flags
		binary.BigEndian.PutUint64(blk[2:10], tc.TraceID)
		binary.BigEndian.PutUint64(blk[10:18], tc.SpanID)
	}
	hdr := room[start : start+headerLen]
	binary.BigEndian.PutUint32(hdr[0:4], Magic)
	hdr[4] = Version
	hdr[5] = uint8(t)
	binary.BigEndian.PutUint16(hdr[6:8], flags)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(n))
	return start
}

// parseHeader checks the fixed header of an incoming frame against this
// side's protocol and payload limit (<= 0 means DefaultMaxPayload) and
// returns the frame's type, whether a trace block follows, and the
// payload length.
func parseHeader(hdr []byte, maxPayload int) (t Type, traced bool, n int, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if got := binary.BigEndian.Uint32(hdr[0:4]); got != Magic {
		return 0, false, 0, fmt.Errorf("%w: 0x%08X", ErrMagic, got)
	}
	if hdr[4] != Version {
		return 0, false, 0, fmt.Errorf("%w: peer speaks version %d, this side %d", ErrVersion, hdr[4], Version)
	}
	t = Type(hdr[5])
	if t == 0 || t >= typeEnd {
		return 0, false, 0, fmt.Errorf("%w: %d", ErrType, hdr[5])
	}
	flags := binary.BigEndian.Uint16(hdr[6:8])
	if flags&^FlagTrace != 0 {
		return 0, false, 0, fmt.Errorf("%w: 0x%04X", ErrFlags, flags)
	}
	size := binary.BigEndian.Uint32(hdr[8:12])
	if int64(size) > int64(maxPayload) {
		return 0, false, 0, fmt.Errorf("%w: %d bytes > limit %d", ErrTooLarge, size, maxPayload)
	}
	return t, flags&FlagTrace != 0, int(size), nil
}

// parseTrace decodes a trace block.
func parseTrace(blk []byte) (trace.Context, error) {
	if blk[0] != traceBlockVersion {
		return trace.Context{}, fmt.Errorf("%w: version %d, this side %d", ErrTrace, blk[0], traceBlockVersion)
	}
	tc := trace.Context{
		Flags:   blk[1],
		TraceID: binary.BigEndian.Uint64(blk[2:10]),
		SpanID:  binary.BigEndian.Uint64(blk[10:18]),
	}
	if !tc.Valid() {
		// A zero trace ID means "untraced", which the flag
		// contradicts; refusing it keeps the encoding canonical
		// (every decoded frame re-encodes byte-identically).
		return trace.Context{}, fmt.Errorf("%w: zero trace id", ErrTrace)
	}
	return tc, nil
}

// cutShort names the end of the stream inside a frame: once the header
// has promised bytes, any shortfall is a truncated frame, even at zero
// bytes read.
func cutShort(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WriteFrame encodes f to w: the header and trace block in one write,
// the payload in a second. It serves a writer that is not a connection
// (a file, a buffer) or a peer met once; a connection that stays sends
// through its Conn, one write a frame. Writing a frame larger than
// maxPayload is refused so a misconfigured client fails locally rather
// than being dropped by the server; maxPayload <= 0 means
// DefaultMaxPayload.
func WriteFrame(w io.Writer, f Frame, maxPayload int) error {
	if err := checkOutgoing(f.Type, len(f.Payload), maxPayload); err != nil {
		return err
	}
	head := headPool.Get().(*[HeaderRoom]byte)
	defer headPool.Put(head)
	start := stamp(head[:], f.Type, f.Trace, len(f.Payload))
	if _, err := w.Write(head[start:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return fmt.Errorf("wire: write payload: %w", err)
		}
	}
	return nil
}

// ReadFrame decodes one frame from r, reading not one byte past it and
// refusing payloads larger than maxPayload (<= 0 means
// DefaultMaxPayload). A clean EOF before any header byte returns
// io.EOF; a header or payload cut short returns an error wrapping
// io.ErrUnexpectedEOF. The payload is the caller's to keep.
func ReadFrame(r io.Reader, maxPayload int) (Frame, error) {
	head := headPool.Get().(*[HeaderRoom]byte)
	defer headPool.Put(head)
	hdr := head[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) && err != io.ErrUnexpectedEOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("wire: read header: %w", err)
	}
	t, traced, n, err := parseHeader(hdr, maxPayload)
	if err != nil {
		return Frame{}, err
	}
	var tc trace.Context
	if traced {
		blk := head[headerLen:]
		if _, err := io.ReadFull(r, blk); err != nil {
			return Frame{}, fmt.Errorf("wire: read trace block: %w", cutShort(err))
		}
		if tc, err = parseTrace(blk); err != nil {
			return Frame{}, err
		}
	}
	payload, err := readPayload(r, n)
	if err != nil {
		return Frame{}, fmt.Errorf("wire: read payload: %w", cutShort(err))
	}
	return Frame{Type: t, Payload: payload, Trace: tc}, nil
}

// readPayload reads exactly n bytes. Up to DefaultMaxPayload — every
// batch, ack and page — that is one allocation of exactly n. A larger
// announcement is not believed up front: the buffer doubles as bytes
// actually arrive, so a header followed by nothing costs a peer twelve
// bytes and this side at most DefaultMaxPayload, whatever the limit.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, DefaultMaxPayload))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	for len(buf) < n {
		grown := make([]byte, min(n, 2*len(buf)))
		copy(grown, buf)
		if _, err := io.ReadFull(r, grown[len(buf):]); err != nil {
			return nil, err
		}
		buf = grown
	}
	return buf, nil
}

// Batch is the unit a client ships: records under a client-assigned
// identifier. The ID is what makes journal replay exactly-once — a
// batch resent after a lost ack carries the same ID and the server
// drops the duplicate. Acct carries per-job energy-attribution
// records alongside the node reports; riding the same batch gives
// them the same dedup, spill and replay semantics for free. The acct
// records are versioned independently (accounting.CodecVersion) so
// the attribution layout can evolve without a wire version bump.
type Batch struct {
	ID      string
	Node    string
	Records []eard.JobRecord
	Acct    []accounting.Record
}

// Ack acknowledges one batch. Accepted counts fresh records,
// Duplicate identical re-deliveries, Replaced records that updated an
// existing (job, step, node) entry with different content.
type Ack struct {
	BatchID   string
	Accepted  int
	Duplicate int
	Replaced  int
}

// ErrorFrame reports a failure to the peer.
type ErrorFrame struct {
	Message string
}

// Query asks the server for a snapshot. Kind selects the view; Job
// and Step scope the "summary" kind. User, Since, Limit and Cursor
// scope and paginate the "acct_jobs" kind (Job doubles as its job
// filter). Limit carries the generation a "changes" query asks from:
// a field every decoder already reads, so a peer that does not know
// the kind answers that it does not, with an error frame.
type Query struct {
	Kind   string
	Job    string
	Step   string
	User   string
	Since  float64
	Limit  int
	Cursor string
}

// Query kinds.
const (
	QueryStats     = "stats"
	QueryAggregate = "aggregate"
	QueryJobs      = "jobs"
	QuerySummary   = "summary"
	// QueryNodePowers returns the last reported DC power of every node
	// as a name-sorted []NodePower: the view a federation root merges
	// across shards, and what makes the merged eargm feed byte-identical
	// to a single daemon's.
	QueryNodePowers = "node_powers"
	// QueryRecords dumps every stored record sorted by (job, step,
	// node): what `earctl dbd records` prints and `earctl acct|report`
	// read.
	QueryRecords = "records"
	// QueryAcctJobs serves one filtered, cursor-paginated page of
	// per-job energy records (an accounting.Page).
	QueryAcctJobs = "acct_jobs"
	// QueryAcctRecords dumps every stored accounting record in
	// canonical (job, step, node, phase) order.
	QueryAcctRecords = "acct_records"
	// QueryGeneration returns the store's mutation counter and part
	// stamps (a Generation). The root's view cache polls it: unchanged
	// generations mean the cached merge is still exact, unchanged stamps
	// that the part they stamp is.
	QueryGeneration = "generation"
	// QueryChanges asks for what moved since the generation in Limit (a
	// Changes), which is how a federation root builds its view. From 0
	// (Limit <= 0) every store answers with all it holds, in one frame:
	// the records dump, the acct_records dump and the power list. From a
	// generation only a shard daemon answers, from its node stamps; it
	// refuses with an error frame when it has dropped or restored
	// accounting records since, and a root refuses it always. The asker
	// then asks from 0.
	QueryChanges = "changes"
)

// Changes is the QueryChanges result: every node a store stamped after
// the generation asked from, whole — its node reports and accounting
// records in canonical order, and its last reported power, if it has
// reported one, by node name.
type Changes struct {
	Records []eard.JobRecord
	Acct    []accounting.Record
	Powers  []NodePower
	// DB and AcctStore, when set, stand for Records and Acct on the
	// encoding side: every record the store holds, encoded straight
	// from its rows as the dumps are. An answer from 0 carries both; a
	// decoded Changes never has either.
	DB        *eard.DB
	AcctStore *accounting.Store
}

// Generation is a store mutation counter, the QueryGeneration result.
// Gen advances whenever anything a view hands out moves — a node report
// or accounting record accepted or replaced, a node's last power
// changed — so equality implies identical contents. Each stamp is the
// value Gen had when its part of the view last moved, so an equal stamp
// implies that part is unchanged whatever the others did: a cache
// re-folds only the parts whose stamps moved.
type Generation struct {
	Gen     uint64
	Records uint64 // the node reports: the records dump
	Acct    uint64 // the accounting records: the acct_records dump
	Powers  uint64 // every node's last reported power: node_powers
}

// Bump advances the counter and stamps the parts named true with it.
func (g Generation) Bump(records, acct, powers bool) Generation {
	g.Gen++
	if records {
		g.Records = g.Gen
	}
	if acct {
		g.Acct = g.Gen
	}
	if powers {
		g.Powers = g.Gen
	}
	return g
}

// NodePower is one node's last reported DC power, the element of a
// QueryNodePowers result. The JSON tags serve snapshot renderings, not
// the wire.
type NodePower struct {
	Node   string  `json:"node"`
	PowerW float64 `json:"power_w"`
}
