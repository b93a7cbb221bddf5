package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"goear/internal/accounting"
)

// Result bodies. A result payload is one kind byte — the index of the
// kind in resultKinds — followed by that kind's body:
//
//	acct_jobs     n × acct, next str, total int
//	node_powers   n × (node str, power_w f64)
//	generation    gen uint, records uint, acct uint, powers uint
//	changes       n × record, n × acct, n × (node str, power_w f64),
//	              [parts uint]
//	changes_part  n × record, n × acct, n × (node str, power_w f64),
//	              seq uint
//	stats, aggregate, jobs, summary
//	              the rest of the payload is the value as JSON
//
// A changes answer is a stream: zero or more changes_part frames, the
// seq-th counting from 0, closed by one changes frame that counts them
// when there are any; the elements are the concatenation of the frames'
// sections, and one string table spans the stream (stream.go). A view
// that fits one frame is the changes frame alone.
//
// Bytes 6 and 8 were the records and acct_records dumps, which changes
// from zero carries. They are retired, not reused: a result of either
// is an unknown kind.
//
// The four binary kinds are the ones that carry records or sit on the
// federation root's fan-out path. The four JSON kinds are small,
// operator-facing scalars whose shapes belong to the packages above
// this one; each kind has exactly one encoding. They stay JSON on a
// measurement: encoding/json was 137 of the 59.2 k objects a 196-query
// read trial allocated (EXPERIMENTS.md, 2026-10-02), against four more
// layouts to keep in step with types this package does not own.

// resultKinds maps a result's kind byte to its name. An empty slot is
// invalid: 0, and the retired 6 and 8.
var resultKinds = [...]string{
	"", QueryStats, QueryAggregate, QueryJobs, QuerySummary,
	QueryNodePowers, "", QueryAcctJobs, "", QueryGeneration,
	QueryChanges, ChangesPart,
}

// minNodePowerLen is the smallest encoded NodePower.
const minNodePowerLen = 1 + 8

// Result is a decoded TypeResult frame: the kind and its still-encoded
// body, for the caller to Decode into the kind-specific shape.
type Result struct {
	Kind string
	Data []byte
}

// ResultKinds lists the result kinds by kind byte — the first byte of
// every result payload; the invalid codes, 0 and the retired ones, are
// empty.
func ResultKinds() []string { return slices.Clone(resultKinds[:]) }

// AppendResult appends the payload of a TypeResult frame of the given
// kind to dst and returns the extended slice. The binary kinds take
// exactly their Go shape (accounting.Page for acct_jobs, []NodePower
// for node_powers, Generation for generation, Changes or *Changes for
// changes, as AppendChanges encodes it); the JSON kinds take any
// marshallable value. On
// error dst comes back as it was. A value in an interface is boxed, one
// allocation a reply: a server answers the binary kinds through the
// typed appenders below, which take theirs as they are, and only the
// JSON kinds through here.
//
// Every appender uses the connection's string table: a reply of more
// than linearTable distinct strings indexes them in the map the
// connection kept from an earlier one, not in a map made for it, and
// the connection keeps it, cleared, for the next — while it stays within
// maxTable. A caller that keeps dst across replies therefore encodes
// without allocating once warm. A nil Conn keeps no table; the bytes are
// the same.
func (c *Conn) AppendResult(dst []byte, kind string, data any) ([]byte, error) {
	if kind == "" || kind == ChangesPart || !slices.Contains(resultKinds[:], kind) {
		return dst, fmt.Errorf("wire: encode result: unknown kind %q", kind)
	}
	e := encoder{buf: dst, kept: c.table()}
	ok := true
	switch kind {
	case QueryAcctJobs:
		var page accounting.Page
		if page, ok = data.(accounting.Page); ok {
			e.open(kind, recordsSizeHint(0, len(page.Records))+len(page.Next))
			e.acctRecords(page.Records)
			e.str(page.Next)
			e.int(page.Total)
		}
	case QueryNodePowers:
		var nps []NodePower
		if nps, ok = data.([]NodePower); ok {
			return c.AppendNodePowers(dst, nps), nil
		}
	case QueryChanges:
		var ch *Changes
		switch v := data.(type) {
		case *Changes:
			ch = v
		case Changes:
			ch = &v
		default:
			ok = false
		}
		if ok {
			out, err := c.AppendChanges(dst, ch)
			if err != nil {
				return dst, err
			}
			return out, nil
		}
	case QueryGeneration:
		var g Generation
		if g, ok = data.(Generation); ok {
			return AppendGeneration(dst, g), nil
		}
	default:
		raw, err := json.Marshal(data)
		if err != nil {
			return dst, fmt.Errorf("wire: encode %s result: %w", kind, err)
		}
		e.open(kind, len(raw))
		e.buf = append(e.buf, raw...)
	}
	if !ok {
		return dst, fmt.Errorf("wire: encode %s result: unexpected data type %T", kind, data)
	}
	e.release()
	return e.buf, nil
}

// table is the connection's slot for its string table, nil without a
// connection.
func (c *Conn) table() *map[string]int {
	if c == nil {
		return nil
	}
	return &c.strs
}

// open starts the body of a result of the given kind, sized for
// sizeHint bytes more.
func (e *encoder) open(kind string, sizeHint int) {
	e.buf = append(slices.Grow(e.buf, 1+sizeHint), uint8(slices.Index(resultKinds[:], kind)))
}

// nodePowersSizeHint guesses the encoded size of n node powers.
func nodePowersSizeHint(n int) int { return 16 + n*(minNodePowerLen+16) }

func (e *encoder) nodePowers(nps []NodePower) {
	e.uint(uint64(len(nps)))
	for _, np := range nps {
		e.str(np.Node)
		e.f64(np.PowerW)
	}
}

// AppendNodePowers appends the payload of a node_powers result to dst.
func (c *Conn) AppendNodePowers(dst []byte, nps []NodePower) []byte {
	e := encoder{buf: dst, kept: c.table()}
	e.open(QueryNodePowers, nodePowersSizeHint(len(nps)))
	e.nodePowers(nps)
	e.release()
	return e.buf
}

// The appenders below encode from a store's rows, to the bytes of its
// copy: a page under the store's lock, a changes answer from pinned rows
// (stream.go). Each is a function of its own: should the compiler
// stop proving that the callbacks a walk takes do not escape, an
// encoder moves to the heap there, not in AppendResult for every reply
// (TestAppendResultAllocations holds that line).

// AppendAcctPage appends the payload of the acct_jobs page q selects
// from s to dst: its count, records, Next and Total from one hold of
// the store's lock (accounting.Store.Select), the Next cursor appended
// straight into the frame from the page's last key. On error dst comes
// back as it was.
func (c *Conn) AppendAcctPage(dst []byte, s *accounting.Store, q accounting.Query) ([]byte, error) {
	e := encoder{buf: dst, kept: c.table()}
	next, more, total, err := s.Select(q, func(n int) {
		e.open(QueryAcctJobs, recordsSizeHint(0, n))
		e.uint(uint64(n))
	}, e.acctRecord)
	if err != nil {
		return dst, err
	}
	at := len(e.buf)
	if more {
		e.buf = accounting.AppendCursor(e.buf, next)
	}
	e.lastStr(at)
	e.int(total)
	e.release()
	return e.buf, nil
}

// generationCode is the generation kind's byte.
var generationCode = uint8(slices.Index(resultKinds[:], QueryGeneration))

// AppendGeneration appends the payload of a generation result to dst:
// what AppendResult encodes for one, from the value itself rather than
// an interface holding it, so a generation answered into a kept buffer
// allocates nothing.
func AppendGeneration(dst []byte, g Generation) []byte {
	dst = append(dst, generationCode)
	for _, v := range [...]uint64{g.Gen, g.Records, g.Acct, g.Powers} {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// AsResult decodes a TypeResult frame's kind; the body stays encoded
// in Data (aliasing the frame's payload) until Decode.
func (f Frame) AsResult() (Result, error) {
	d, err := f.body(TypeResult)
	if err != nil {
		return Result{}, err
	}
	code := d.byte()
	if d.err == nil && (int(code) >= len(resultKinds) || resultKinds[code] == "") {
		d.fail("unknown result kind %d", code)
	}
	if d.err != nil {
		return Result{}, d.finish("result", "payload")
	}
	return Result{Kind: resultKinds[code], Data: d.p[d.off:]}, nil
}

// Decode decodes the result body into v, which must point at the
// kind's Go shape (see AppendResult). Slices v already holds are
// reused when large enough, and a decoded slice is never nil. A changes
// result decodes as the whole of a one-frame answer; a longer answer's
// frames are read together through a ChangesReader, and a changes_part
// on its own is refused.
func (r Result) Decode(v any) error {
	d := newDecoder(r.Data, resultShare)
	ok := true
	switch r.Kind {
	case QueryAcctJobs:
		var p *accounting.Page
		if p, ok = v.(*accounting.Page); ok {
			p.Records = nonNil(d.acctRecords(p.Records[:0]))
			p.Next = d.str()
			p.Total = d.int()
		}
	case QueryNodePowers:
		var p *[]NodePower
		if p, ok = v.(*[]NodePower); ok {
			*p = d.nodePowers(*p)
		}
	case QueryChanges:
		var p *Changes
		if p, ok = v.(*Changes); ok {
			p.Records = nonNil(d.records(p.Records[:0]))
			p.Acct = nonNil(d.acctRecords(p.Acct[:0]))
			p.Powers = d.nodePowers(p.Powers)
		}
	case QueryGeneration:
		var p *Generation
		if p, ok = v.(*Generation); ok {
			*p = d.generation()
		}
	case ChangesPart:
		d.fail("a part decodes within its changes stream")
	default:
		if err := json.Unmarshal(r.Data, v); err != nil {
			return fmt.Errorf("wire: decode %s result: %w", r.Kind, err)
		}
		return nil
	}
	if !ok {
		return fmt.Errorf("wire: decode %s result: unexpected target type %T", r.Kind, v)
	}
	return d.finish(r.Kind, "result")
}

// nodePowers decodes n × node power into into's backing array when it
// fits. The count comes first, so the table and the literal block are
// sized for the names before the first is read: every byte left but
// the entries' tags and powers may be a name.
func (d *decoder) nodePowers(into []NodePower) []NodePower {
	nps := nonNil(resize(into[:0], d.count(minNodePowerLen)))
	if len(nps) > 0 {
		d.reserve(len(nps), d.left()-len(nps)*minNodePowerLen)
	}
	for i := range nps {
		nps[i] = NodePower{Node: d.str(), PowerW: d.f64()}
	}
	return nps
}

// Generation decodes a generation result, as Decode into a *Generation
// does, but returns the value: nothing passes through an interface, so
// a poll decoded into a caller's array leaves it on the caller's stack.
func (r Result) Generation() (Generation, error) {
	if r.Kind != QueryGeneration {
		return Generation{}, fmt.Errorf("wire: decode %s result: not a %s", r.Kind, QueryGeneration)
	}
	d := newDecoder(r.Data, resultShare)
	g := d.generation()
	return g, d.finish(r.Kind, "result")
}

// generation reads a generation body: the counter and its three part
// stamps.
func (d *decoder) generation() Generation {
	return Generation{Gen: d.uint(), Records: d.uint(), Acct: d.uint(), Powers: d.uint()}
}

// nonNil turns a nil slice into an empty one, so an empty result
// renders as [] rather than null wherever it is printed.
func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}
