package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"goear/internal/accounting"
	"goear/internal/eard"
)

// Result bodies. A result payload is one kind byte — the index of the
// kind in resultKinds — followed by that kind's body:
//
//	records       n × record
//	acct_records  n × acct
//	acct_jobs     n × acct, next str, total int
//	node_powers   n × (node str, power_w f64)
//	generation    gen uint, records uint, acct uint, powers uint
//	changes       n × record, n × acct, n × (node str, power_w f64)
//	stats, aggregate, jobs, summary
//	              the rest of the payload is the value as JSON
//
// A generation body of gen alone, as a sender from before the part
// stamps writes it, decodes with every stamp equal to gen: to a cache
// every part moved whenever anything did.
//
// The six binary kinds are the ones that carry records or sit on the
// federation root's fan-out path. The four JSON kinds are small,
// operator-facing scalars whose shapes belong to the packages above
// this one; each kind has exactly one encoding. They stay JSON on a
// measurement: encoding/json was 137 of the 59.2 k objects a 196-query
// read trial allocated (EXPERIMENTS.md, 2026-10-02), against four more
// layouts to keep in step with types this package does not own.

// resultKinds maps a result's kind byte to its name; 0 is invalid.
var resultKinds = [...]string{
	"", QueryStats, QueryAggregate, QueryJobs, QuerySummary,
	QueryNodePowers, QueryRecords, QueryAcctJobs, QueryAcctRecords, QueryGeneration,
	QueryChanges,
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
// every result payload; index 0, the invalid code, is empty.
func ResultKinds() []string { return slices.Clone(resultKinds[:]) }

// AppendResult appends the payload of a TypeResult frame of the given
// kind to dst and returns the extended slice. The binary kinds take
// exactly their Go shape ([]eard.JobRecord for records,
// []accounting.Record for acct_records, accounting.Page for acct_jobs,
// []NodePower for node_powers, Generation for generation, Changes for
// changes — or a pointer to it, which a store answering into a kept
// buffer passes so as not to box a copy); the JSON
// kinds take any marshallable value. The two kinds a store serves
// also take the store's own view, encoded record by record with no
// copy in between and to the same bytes: an accounting.Selection for
// acct_jobs, an *eard.DB for records. On error dst comes back as it
// was.
//
// The encoder uses the connection's string table: a reply of more than
// linearTable distinct strings indexes them in the map the connection
// kept from an earlier one, not in a map made for it, and the
// connection keeps it, cleared, for the next — while it stays within
// maxTable. A caller that keeps dst across replies therefore encodes
// without allocating once warm. A nil Conn keeps no table; the bytes
// are the same.
func (c *Conn) AppendResult(dst []byte, kind string, data any) ([]byte, error) {
	if c == nil {
		return appendResult(dst, nil, kind, data)
	}
	return appendResult(dst, &c.strs, kind, data)
}

// appendResult is Conn.AppendResult with the connection's map slot,
// nil without a connection.
func appendResult(dst []byte, kept *map[string]int, kind string, data any) ([]byte, error) {
	code := slices.Index(resultKinds[:], kind)
	if code <= 0 {
		return dst, fmt.Errorf("wire: encode result: unknown kind %q", kind)
	}
	e := encoder{kept: kept}
	// begin sizes the payload for the body about to be written.
	begin := func(sizeHint int) { e.buf = append(slices.Grow(dst, 1+sizeHint), uint8(code)) }
	ok := true
	switch kind {
	case QueryRecords:
		switch recs := data.(type) {
		case []eard.JobRecord:
			begin(recordsSizeHint(len(recs), 0))
			e.records(recs)
		case *eard.DB:
			return appendRecordsOf(dst, kept, uint8(code), recs), nil
		default:
			ok = false
		}
	case QueryAcctRecords:
		var recs []accounting.Record
		if recs, ok = data.([]accounting.Record); ok {
			begin(recordsSizeHint(0, len(recs)))
			e.acctRecords(recs)
		}
	case QueryAcctJobs:
		switch page := data.(type) {
		case accounting.Page:
			begin(recordsSizeHint(0, len(page.Records)) + len(page.Next))
			e.acctRecords(page.Records)
			e.str(page.Next)
			e.int(page.Total)
		case accounting.Selection:
			begin(recordsSizeHint(0, page.N) + len(page.Next))
			e.uint(uint64(page.N))
			// Each is a concrete method that only calls its argument, so
			// the closure — and with it e — stays on the stack.
			page.Each(func(r *accounting.Record) { e.acctRecord(r) })
			e.str(page.Next)
			e.int(page.Total)
		default:
			ok = false
		}
	case QueryNodePowers:
		var nps []NodePower
		if nps, ok = data.([]NodePower); ok {
			begin(nodePowersSizeHint(len(nps)))
			e.nodePowers(nps)
		}
	case QueryChanges:
		var ch *Changes
		switch c := data.(type) {
		case *Changes:
			ch = c
		case Changes:
			ch = &c
		default:
			ok = false
		}
		if ok {
			begin(recordsSizeHint(len(ch.Records), len(ch.Acct)) + nodePowersSizeHint(len(ch.Powers)))
			e.records(ch.Records)
			e.acctRecords(ch.Acct)
			e.nodePowers(ch.Powers)
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
		begin(len(raw))
		e.buf = append(e.buf, raw...)
	}
	if !ok {
		return dst, fmt.Errorf("wire: encode %s result: unexpected data type %T", kind, data)
	}
	e.release()
	return e.buf, nil
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

// appendRecordsOf is the records dump encoded straight from the
// database's rows, under its read lock. It is a function of its own
// because its encoder is reached from callbacks handed across two
// packages and a generic instantiation: should the compiler ever stop
// proving they do not escape, the encoder moves to the heap here, for
// a dump, and not in AppendResult for every reply of every kind
// (TestAppendResultAllocations holds that line).
func appendRecordsOf(dst []byte, kept *map[string]int, code uint8, db *eard.DB) []byte {
	e := encoder{buf: dst, kept: kept}
	db.Walk(func(n int) {
		e.buf = append(slices.Grow(e.buf, 1+recordsSizeHint(n, 0)), code)
		e.uint(uint64(n))
	}, e.record)
	e.release()
	return e.buf
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
	if d.err == nil && (code == 0 || int(code) >= len(resultKinds)) {
		d.fail("unknown result kind %d", code)
	}
	if d.err != nil {
		return Result{}, d.finish("result", "payload")
	}
	return Result{Kind: resultKinds[code], Data: d.p[d.off:]}, nil
}

// Decode decodes the result body into v, which must point at the
// kind's Go shape (see AppendResult). Slices v already holds are
// reused when large enough, and a decoded slice is never nil.
func (r Result) Decode(v any) error {
	d := newDecoder(r.Data, resultShare)
	ok := true
	switch r.Kind {
	case QueryRecords:
		var p *[]eard.JobRecord
		if p, ok = v.(*[]eard.JobRecord); ok {
			*p = nonNil(d.records((*p)[:0]))
		}
	case QueryAcctRecords:
		var p *[]accounting.Record
		if p, ok = v.(*[]accounting.Record); ok {
			*p = nonNil(d.acctRecords((*p)[:0]))
		}
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
// fits.
func (d *decoder) nodePowers(into []NodePower) []NodePower {
	nps := nonNil(resize(into[:0], d.count(minNodePowerLen)))
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
// stamps, or the counter alone, which stamps every part with it.
func (d *decoder) generation() Generation {
	g := Generation{Gen: d.uint()}
	if d.err == nil && d.left() == 0 {
		g.Records, g.Acct, g.Powers = g.Gen, g.Gen, g.Gen
		return g
	}
	g.Records, g.Acct, g.Powers = d.uint(), d.uint(), d.uint()
	return g
}

// EachRecord decodes a records dump one record at a time, handing each
// to fn, so a dump folds into a store with no slice in between. The
// strings of a record are cut from the frame's literal blocks like any
// decoded string. It stops at fn's first error and returns it; a
// malformed body fails as Decode does, after fn has seen the records
// before the fault.
func (r Result) EachRecord(fn func(eard.JobRecord) error) error {
	if r.Kind != QueryRecords {
		return fmt.Errorf("wire: decode %s result: not a %s dump", r.Kind, QueryRecords)
	}
	d := newDecoder(r.Data, resultShare)
	var rec eard.JobRecord
	for n := d.count(minRecordLen); n > 0; n-- {
		if d.record(&rec); d.err != nil {
			break
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return d.finish(r.Kind, "result")
}

// EachAcctRecord is EachRecord for an acct_records dump.
func (r Result) EachAcctRecord(fn func(accounting.Record) error) error {
	if r.Kind != QueryAcctRecords {
		return fmt.Errorf("wire: decode %s result: not an %s dump", r.Kind, QueryAcctRecords)
	}
	d := newDecoder(r.Data, resultShare)
	var rec accounting.Record
	for n := d.count(minAcctLen); n > 0; n-- {
		if d.acctRecord(&rec); d.err != nil {
			break
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return d.finish(r.Kind, "result")
}

// EachChange decodes a changes result one element at a time, as
// EachRecord does a dump: every node report to rec, then every
// accounting record to acct, then every node power to power. It stops
// at the first error a function returns and returns it.
func (r Result) EachChange(rec func(eard.JobRecord) error, acct func(accounting.Record) error, power func(NodePower) error) error {
	if r.Kind != QueryChanges {
		return fmt.Errorf("wire: decode %s result: not a %s result", r.Kind, QueryChanges)
	}
	d := newDecoder(r.Data, resultShare)
	var jr eard.JobRecord
	for n := d.count(minRecordLen); n > 0 && d.err == nil; n-- {
		if d.record(&jr); d.err == nil {
			if err := rec(jr); err != nil {
				return err
			}
		}
	}
	var ar accounting.Record
	for n := d.count(minAcctLen); n > 0 && d.err == nil; n-- {
		if d.acctRecord(&ar); d.err == nil {
			if err := acct(ar); err != nil {
				return err
			}
		}
	}
	for n := d.count(minNodePowerLen); n > 0 && d.err == nil; n-- {
		if np := (NodePower{Node: d.str(), PowerW: d.f64()}); d.err == nil {
			if err := power(np); err != nil {
				return err
			}
		}
	}
	return d.finish(r.Kind, "result")
}

// nonNil turns a nil slice into an empty one, so an empty result
// renders as [] rather than null wherever it is printed.
func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}
