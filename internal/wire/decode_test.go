package wire

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"goear/internal/accounting"
	"goear/internal/alloctest"
	"goear/internal/eard"
)

// decodeAny is the production decode of one payload into its shape: a
// Batch, Ack, ErrorFrame or Query, or — for a result — the binary
// kind's Go value (nil for the JSON kinds).
func decodeAny(typ Type, p []byte) (any, error) {
	f := Frame{Type: typ, Payload: p}
	switch typ {
	case TypeBatch:
		return f.AsBatch()
	case TypeAck:
		id, a, err := f.ack()
		a.BatchID = string(id)
		return a, err
	case TypeError:
		return f.AsError()
	case TypeQuery:
		return f.AsQuery()
	}
	res, err := f.AsResult()
	if err != nil {
		return nil, err
	}
	target := map[string]any{
		QueryAcctJobs: new(accounting.Page), QueryNodePowers: new([]NodePower), QueryGeneration: new(Generation),
		QueryChanges: new(Changes),
	}[res.Kind]
	if target == nil {
		return nil, nil
	}
	err = res.Decode(target)
	return reflect.ValueOf(target).Elem().Interface(), err
}

// fleetNode names node i the way the load generator does.
func fleetNode(i int) string { return fmt.Sprintf("node%05d", i) }

// fleetPowers is a 200-node node_powers reply, fleetPage a 200-record
// accounting page over those nodes: the two fleet-sized replies an
// admin client decodes.
func fleetPowers() []NodePower {
	nps := make([]NodePower, 200)
	for i := range nps {
		nps[i] = NodePower{Node: fleetNode(i), PowerW: 250 + float64(i%40)}
	}
	return nps
}

func fleetPage() accounting.Page {
	page := accounting.Page{Next: "am9iMDAwNy8wL25vZGUwMDE5OS8z", Total: 2400}
	for i := 0; i < 200; i++ {
		page.Records = append(page.Records, accounting.Record{
			V: accounting.CodecVersion, JobID: fmt.Sprintf("job%04d", i/64), StepID: fmt.Sprint(i / 32 % 2), User: "alice",
			Node: fleetNode(i % 64), Policy: "min_energy_eufs", Phase: i % 3, StartSec: 120 * float64(i), EndSec: 120 * float64(i+1),
			PkgJ: 21000.5, DramJ: 3100.25, UncoreJ: 4000.125, NodeJ: 31000, AvgCPUGHz: 2.1, AvgIMCGHz: 2.4,
		})
	}
	return page
}

func mustResultPayload(tb testing.TB, kind string, v any) []byte {
	tb.Helper()
	switch sv := v.(type) {
	case storePage:
		page, err := sv.s.Query(sv.q)
		if err != nil {
			tb.Fatal(err)
		}
		v = page
	case *eard.DB:
		v = Changes{Records: sv.Records()}
	}
	p, err := noConn.AppendResult(nil, kind, v)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// noConn encodes as a caller without a connection does: with no string
// table kept between payloads.
var noConn *Conn

// storePage is an acct_jobs page as a server serves it: q over s,
// encoded from the store's rows (AppendAcctPage).
type storePage struct {
	s *accounting.Store
	q accounting.Query
}

// appendReply encodes v as c serves it: a storePage, or a database as
// a whole view of its node reports, through its typed appender, anything
// else through AppendResult.
func appendReply(c *Conn, dst []byte, kind string, v any) ([]byte, error) {
	switch sv := v.(type) {
	case storePage:
		return c.AppendAcctPage(dst, sv.s, sv.q)
	case *eard.DB:
		return c.AppendChanges(dst, &Changes{DB: sv})
	}
	return c.AppendResult(dst, kind, v)
}

// decodeCorporaDigest is the FNV-1a digest of what the decoders make of
// every input of TestDecodeCorporaGolden. It was pinned when the
// reference decoder — every literal its own string, the decoder as it
// stood before literal blocks — still agreed with the block decoder on
// every one of them, field for field and failure for failure; that
// reference is retired, the digest holds its verdict. It moved once
// since, when the records and acct_records kinds were retired: their two
// result seeds became changes answers that decode to the same records,
// and every other input decodes as it did.
const decodeCorporaDigest = 0x8ecce0d2616e3f7f

// TestDecodeCorporaGolden decodes the seed corpora of the three wire
// fuzzers, the fleet-sized replies, and every one of them cut to two
// thirds — so decodes fail mid-literal, mid-record and mid-table — and
// pins, per input, the decoded value or the fact that it failed.
func TestDecodeCorporaGolden(t *testing.T) {
	type input struct {
		name string
		typ  Type
		p    []byte
	}
	var inputs []input
	for i, raw := range frameSeeds(t) {
		if f, err := ReadFrame(bytes.NewReader(raw), 4096); err == nil {
			inputs = append(inputs, input{fmt.Sprintf("frame seed %d (%s)", i, f.Type), f.Type, f.Payload})
		}
	}
	for i, p := range batchSeeds() {
		inputs = append(inputs, input{fmt.Sprintf("batch seed %d", i), TypeBatch, p})
	}
	for i, p := range resultSeeds(t) {
		inputs = append(inputs, input{fmt.Sprintf("result seed %d", i), TypeResult, p})
	}
	inputs = append(inputs,
		input{"node_powers x200", TypeResult, mustResultPayload(t, QueryNodePowers, fleetPowers())},
		input{"acct_jobs page x200", TypeResult, mustResultPayload(t, QueryAcctJobs, fleetPage())},
		input{"batch x32", TypeBatch, appendBatch(nil, benchBatch())},
	)
	for _, in := range inputs {
		if n := len(in.p); n > 1 {
			inputs = append(inputs, input{in.name + ", two thirds", in.typ, in.p[:2*n/3]})
		}
	}
	h := fnv.New64a()
	failed := 0
	for _, in := range inputs {
		v, err := decodeAny(in.typ, in.p)
		if err != nil {
			failed++
			fmt.Fprintf(h, "%s\terror\n", in.name)
			continue
		}
		fmt.Fprintf(h, "%s\t%#v\n", in.name, v)
	}
	if got := h.Sum64(); got != decodeCorporaDigest {
		t.Errorf("%d inputs (%d failing) decode to digest %#016x, want %#016x", len(inputs), failed, got, uint64(decodeCorporaDigest))
	}
}

// TestFleetReplyDecodeAllocations pins what the blocks buy on the two
// fleet-sized replies, decoded into a reused target as a polling
// client does, and on a batch decoded on its own and through a warm
// connection, as a server does: one block and one table spill for a
// power list, sized from its count, a block and a spill for a page,
// where there was a heap string per literal (200 node names; 71
// distinct strings a page) and a table doubled from nothing, and
// nothing at all for a batch that names what the last one did. The
// bytes pin each kind's first block (frameShare, resultShare): sized a
// sixteenth of its payload, a batch's block alone grows from 96 to 144
// bytes.
func TestFleetReplyDecodeAllocations(t *testing.T) {
	powers, err := Frame{Type: TypeResult, Payload: mustResultPayload(t, QueryNodePowers, fleetPowers())}.AsResult()
	if err != nil {
		t.Fatal(err)
	}
	page, err := Frame{Type: TypeResult, Payload: mustResultPayload(t, QueryAcctJobs, fleetPage())}.AsResult()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := EncodeBatch(benchBatch())
	var framed bytes.Buffer
	if err := WriteFrame(&framed, f, 0); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	var nps []NodePower
	var pg accounting.Page
	var batch Batch
	var warm Conn
	for _, c := range []struct {
		name          string
		decode        func() error
		allocs, bytes float64
	}{
		// 1,800 bytes of names in a 3,600-byte payload, the count read
		// first: one block of the 1,800 bytes the names can take at
		// most (2,048 with the allocator's rounding) and one spill of
		// the 168 entries past the linear table (2,688 bytes and a
		// malloc header: 3,072). Block by doubling block and a spill
		// grown 128 then 256, it was 6 allocations and 9,056 bytes.
		{"node_powers x200", func() error { return powers.Decode(&nps) }, 2, 5120},
		// 654 bytes of literals in a 15 KB payload's 937-byte first
		// block, and one spill.
		{"acct_jobs page x200", func() error { return page.Decode(&pg) }, 2, 3328},
		// The frame read as a server keeps it: its 70 bytes of strings
		// in one 81-byte block (96 with the allocator's rounding).
		{"batch 24+8", func() error { return f.DecodeBatch(&batch) }, 1, 96},
		// BenchmarkWireDecodeBatch's shape: the same, read from the
		// stream first, which adds the frame's payload.
		{"batch 24+8 read", func() error {
			rd.Reset(framed.Bytes())
			f, err := ReadFrame(rd, 0)
			if err != nil {
				return err
			}
			return f.DecodeBatch(&batch)
		}, 2, 0},
		// The same batch again through the connection a shard decodes
		// with: every literal is one the last batch named.
		{"batch 24+8 warm", func() error { return warm.DecodeBatch(f, &batch) }, 0, 0},
	} {
		if err := c.decode(); err != nil { // sizes the reused target
			t.Fatal(err)
		}
		decode := func() {
			if err := c.decode(); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(50, decode); got != c.allocs {
			t.Errorf("%s: %v allocations per decode, want %v", c.name, got, c.allocs)
		}
		// A read's header scratch comes from a sync.Pool, which drops
		// items at random under the race detector: its bytes are
		// TestReadFramePayloadAllocations'.
		if c.bytes == 0 {
			continue
		}
		if got := bytesPerRun(50, decode); got != c.bytes {
			t.Errorf("%s: %v bytes allocated per decode, want %v", c.name, got, c.bytes)
		}
	}
	if !sameBits(batch, benchBatch()) {
		t.Error("the reused batch no longer holds the batch")
	}
	if !sameBits(nps, fleetPowers()) || !sameBits(pg, fleetPage()) {
		t.Error("the reused targets no longer hold the replies")
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of f allocates, averaged over runs calls after a warm-up call.
// The collector is off meanwhile: under -race a collection allocates
// a little of its own.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	a := alloctest.Count(func() {
		for range runs {
			f()
		}
	})
	return float64(a.Bytes / uint64(runs))
}

// TestLiteralBlocksBoundedByPayload: a block is never sized past what
// the payload can still fill (the allocator may round it up a size
// class), however long the literals and however many — a frame of
// maximal literals gets blocks of their own size, and the strings cut
// from a frame never pin more than twice its length.
func TestLiteralBlocksBoundedByPayload(t *testing.T) {
	long := bytes.Repeat([]byte{'x'}, 3*maxBlock)
	var e encoder
	for i := 0; i < 8; i++ {
		long[0] = byte('a' + i) // distinct, so each is a literal
		e.str(string(long))
	}
	for i := 0; i < 300; i++ {
		e.str(fmt.Sprintf("s%03d", i))
	}
	d := decoder{p: e.buf}
	pinned, blocks := 0, 0
	for d.left() > 0 {
		s := d.str()
		if d.err != nil {
			t.Fatal(d.err)
		}
		if d.lits.blk.Len() != len(s) {
			continue // cut from the block the literal before it opened
		}
		blocks++
		pinned += d.lits.blk.Cap()
		if fill := len(s) + d.left(); d.lits.blk.Cap() > fill+fill/4+16 {
			t.Fatalf("block %d: %d bytes with %d payload bytes to fill it", blocks, d.lits.blk.Cap(), fill)
		}
	}
	if blocks < 9 || pinned > 2*len(d.p) {
		t.Errorf("%d blocks pin %d bytes for a %d-byte payload", blocks, pinned, len(d.p))
	}
}
