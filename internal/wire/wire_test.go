package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry/trace"
)

func testRecords() []eard.JobRecord {
	return []eard.JobRecord{
		{JobID: "1001", StepID: "0", Node: "n01", App: "BT-MZ.C", Policy: "min_energy",
			TimeSec: 120.5, EnergyJ: 36000, AvgPower: 298.8, AvgCPU: 2.1, AvgIMC: 2.4, AvgCPI: 0.61, AvgGBs: 48.2},
		{JobID: "1001", StepID: "0", Node: "n02", App: "BT-MZ.C", Policy: "min_energy",
			TimeSec: 119.8, EnergyJ: 35800, AvgPower: 298.8},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	in := Batch{ID: "n01/1", Node: "n01", Records: testRecords()}
	f, err := EncodeBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := got.AsBatch()
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Node != in.Node || len(out.Records) != len(in.Records) {
		t.Fatalf("round trip lost data: %+v", out)
	}
	for i := range in.Records {
		if out.Records[i] != in.Records[i] {
			t.Errorf("record %d = %+v, want %+v", i, out.Records[i], in.Records[i])
		}
	}
}

func TestAckErrorQueryResultRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{}
	for _, mk := range []func() (Frame, error){
		func() (Frame, error) { return EncodeAck(Ack{BatchID: "n01/7", Accepted: 3, Duplicate: 1}) },
		func() (Frame, error) { return Frame{Type: TypeError, Payload: AppendError(nil, "bad batch")}, nil },
		func() (Frame, error) { return EncodeQuery(Query{Kind: QuerySummary, Job: "1001", Step: "0"}) },
		func() (Frame, error) {
			p, err := noConn.AppendResult(nil, QueryJobs, []string{"1001"})
			return Frame{Type: TypeResult, Payload: p}, err
		},
	} {
		f, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
		if err := WriteFrame(&buf, f, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := range frames {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != frames[i].Type {
			t.Fatalf("frame %d type = %s, want %s", i, got.Type, frames[i].Type)
		}
	}
	// The stream is drained: the next read is a clean EOF.
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Errorf("drained stream read = %v, want io.EOF", err)
	}
	id, a, err := frames[0].ack()
	if err != nil || string(id) != "n01/7" || a.Accepted != 3 || a.Duplicate != 1 || !frames[0].AcksBatch("n01/7") {
		t.Errorf("ack of %q = %+v, err %v", id, a, err)
	}
	q, err := frames[2].AsQuery()
	if err != nil || q.Kind != QuerySummary || q.Job != "1001" {
		t.Errorf("query = %+v, err %v", q, err)
	}
}

// header builds a raw frame header for corruption tests.
func header(magic uint32, version, typ uint8, flags uint16, length uint32) []byte {
	h := make([]byte, headerLen)
	binary.BigEndian.PutUint32(h[0:4], magic)
	h[4] = version
	h[5] = typ
	binary.BigEndian.PutUint16(h[6:8], flags)
	binary.BigEndian.PutUint32(h[8:12], length)
	return h
}

func TestDecodeRejections(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"bad magic", header(0xDEADBEEF, Version, uint8(TypeAck), 0, 0), ErrMagic},
		{"version skew", header(Magic, Version+1, uint8(TypeAck), 0, 0), ErrVersion},
		{"version 1 (JSON payloads)", append(header(Magic, 1, uint8(TypeAck), 0, 16), `{"batch_id":"x"}`...), ErrVersion},
		{"version zero", header(Magic, 0, uint8(TypeAck), 0, 0), ErrVersion},
		{"type zero", header(Magic, Version, 0, 0, 0), ErrType},
		{"type unknown", header(Magic, Version, uint8(typeEnd), 0, 0), ErrType},
		{"reserved flags", header(Magic, Version, uint8(TypeAck), 7, 0), ErrFlags},
		{"oversized length", header(Magic, Version, uint8(TypeAck), 0, DefaultMaxPayload+1), ErrTooLarge},
		{"huge length prefix", header(Magic, Version, uint8(TypeAck), 0, 0xFFFFFFFF), ErrTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tc.raw), 0)
			if !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestTruncation(t *testing.T) {
	f, err := EncodeAck(Ack{BatchID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f, 0); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every proper prefix must error; only the empty prefix is io.EOF.
	for cut := 0; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]), 0)
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("empty stream: err = %v, want io.EOF", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("truncated frame at %d/%d bytes decoded successfully", cut, len(full))
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: err = %v, want wrapped io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestPayloadLimits(t *testing.T) {
	big := Frame{Type: TypeBatch, Payload: bytes.Repeat([]byte{'x'}, 100)}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, big, 64); !errors.Is(err, ErrTooLarge) {
		t.Errorf("write over limit = %v, want ErrTooLarge", err)
	}
	if err := WriteFrame(&buf, big, 128); err != nil {
		t.Fatal(err)
	}
	// A server with a tighter limit than the writer refuses the frame.
	if _, err := ReadFrame(&buf, 64); !errors.Is(err, ErrTooLarge) {
		t.Errorf("read over limit = %v, want ErrTooLarge", err)
	}
}

func TestWriteRejectsInvalidType(t *testing.T) {
	var buf bytes.Buffer
	for _, typ := range []Type{0, typeEnd, typeEnd + 40} {
		if err := WriteFrame(&buf, Frame{Type: typ}, 0); !errors.Is(err, ErrType) {
			t.Errorf("type %d: err = %v, want ErrType", typ, err)
		}
	}
	if buf.Len() != 0 {
		t.Error("rejected frame still wrote bytes")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	in, err := EncodeQuery(Query{Kind: QueryStats})
	if err != nil {
		t.Fatal(err)
	}
	in.Trace = trace.Context{TraceID: 0xABCD, SpanID: 0x1234, Flags: 5}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in, 0); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != in.Trace {
		t.Fatalf("trace context = %+v, want %+v", got.Trace, in.Trace)
	}
	if q, err := got.AsQuery(); err != nil || q.Kind != QueryStats {
		t.Fatalf("payload after trace block: %+v, err %v", q, err)
	}
}

func TestUntracedFramesUnchanged(t *testing.T) {
	// A frame without a trace context carries no trace of tracing: flag
	// bits zero, no block — which is what lets a journal store untraced
	// frames and a replay stamp a context without touching the payload.
	f, err := EncodeAck(Ack{BatchID: "n01/1"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if flags := binary.BigEndian.Uint16(raw[6:8]); flags != 0 {
		t.Fatalf("untraced frame carries flags 0x%04X", flags)
	}
	if len(raw) != headerLen+len(f.Payload) {
		t.Fatalf("untraced frame length %d, want %d", len(raw), headerLen+len(f.Payload))
	}
}

func TestTraceBlockRejections(t *testing.T) {
	valid := func() []byte {
		blk := make([]byte, traceBlockLen)
		blk[0] = byte(traceBlockVersion)
		binary.BigEndian.PutUint64(blk[2:10], 77)
		binary.BigEndian.PutUint64(blk[10:18], 88)
		return blk
	}
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"missing block", header(Magic, Version, uint8(TypeAck), FlagTrace, 0), io.ErrUnexpectedEOF},
		{"future block version", append(header(Magic, Version, uint8(TypeAck), FlagTrace, 0),
			func() []byte { b := valid(); b[0] = 9; return b }()...), ErrTrace},
		{"zero trace id", append(header(Magic, Version, uint8(TypeAck), FlagTrace, 0),
			func() []byte { b := valid(); binary.BigEndian.PutUint64(b[2:10], 0); return b }()...), ErrTrace},
		{"other flag bits", header(Magic, Version, uint8(TypeAck), FlagTrace|2, 0), ErrFlags},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tc.raw), 0)
			if !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestUnmarshalTypeMismatch(t *testing.T) {
	f, err := EncodeAck(Ack{BatchID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AsBatch(); err == nil || !strings.Contains(err.Error(), "not batch") {
		t.Errorf("AsBatch on ack frame = %v", err)
	}
}

// A length prefix is a claim, not a fact: a header announcing the
// largest frame the limit allows, followed by nothing, must cost the
// reader next to nothing.
func TestReadFrameDoesNotTrustLengthPrefix(t *testing.T) {
	const limit = 256 << 20
	raw := header(Magic, Version, uint8(TypeResult), 0, limit)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := ReadFrame(bytes.NewReader(raw), limit)
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error = %v, want wrapped io.ErrUnexpectedEOF", err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 2<<20 {
		t.Errorf("a 12-byte header made ReadFrame allocate %d bytes", got)
	}
}

func TestReadFramePayloadAllocations(t *testing.T) {
	// Up to DefaultMaxPayload — every batch, ack and page — the payload
	// is the one allocation a read costs: the bytes allocated are the
	// payload's, once, with nothing grown or copied. (Bytes, not a
	// count: under the race detector sync.Pool drops the header scratch
	// at random, which costs a 32-byte allocation now and then.)
	for _, size := range []int{100, 64 << 10, DefaultMaxPayload} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{Type: TypeResult, Payload: make([]byte, size)}, 0); err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(nil)
		const runs = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			rd.Reset(buf.Bytes())
			if _, err := ReadFrame(rd, 0); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		per := int(m1.TotalAlloc-m0.TotalAlloc) / runs
		if per < size || per > size+size/8+64 {
			t.Errorf("%d-byte payload: %d bytes allocated per ReadFrame, want one allocation of the payload", size, per)
		}
	}
	// Past it the buffer grows with the bytes that arrive, and what
	// arrives is what is returned.
	big := make([]byte, 3*DefaultMaxPayload+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: TypeResult, Payload: big}, 8<<20); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, big) {
		t.Error("a frame read through the growth path differs from the one written")
	}
}

// awkward values a codec is tempted to normalise: the floats JSON
// cannot carry or would round, the strings a length prefix gets wrong.
var (
	oddFloats  = []float64{0, math.Copysign(0, -1), 5e-324, -2.2250738585072009e-308, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 298.8, 1e-9}
	oddStrings = []string{"", "a", "é", "n01", "node00042", "min_energy_eufs", strings.Repeat("x", 300), "job/with/slashes", "\x00\x1f"}
)

func oddRecord(rng *rand.Rand) eard.JobRecord {
	s := func() string { return oddStrings[rng.Intn(len(oddStrings))] }
	f := func() float64 { return oddFloats[rng.Intn(len(oddFloats))] }
	return eard.JobRecord{JobID: s(), StepID: s(), Node: s(), App: s(), Policy: s(),
		TimeSec: f(), EnergyJ: f(), AvgPower: f(), AvgCPU: f(), AvgIMC: f(), AvgCPI: f(), AvgGBs: f()}
}

func oddAcct(rng *rand.Rand) accounting.Record {
	s := func() string { return oddStrings[rng.Intn(len(oddStrings))] }
	f := func() float64 { return oddFloats[rng.Intn(len(oddFloats))] }
	return accounting.Record{V: rng.Intn(5) - 1, JobID: s(), StepID: s(), User: s(), Node: s(), Policy: s(),
		Phase: rng.Intn(1<<20) - 3, StartSec: f(), EndSec: f(), PkgJ: f(), DramJ: f(), UncoreJ: f(), NodeJ: f(),
		AvgCPUGHz: f(), AvgIMCGHz: f()}
}

// bitEqual compares two decoded values the way the byte-identity
// contract needs: floats by their bits (NaN equals itself, 0 differs
// from -0), slices by content (nil equals empty).
func bitEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

func sameBits(a, b any) bool { return bitEqual(reflect.ValueOf(a), reflect.ValueOf(b)) }

// TestRoundTripEveryShape pushes seeded values, awkward ones included,
// through every frame type and every result kind, and back.
func TestRoundTripEveryShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		n := []int{0, 1, 3, 40, 130}[round%5] // 40 and 130 records overflow the linear string table
		recs := make([]eard.JobRecord, n)
		for i := range recs {
			recs[i] = oddRecord(rng)
		}
		acct := make([]accounting.Record, n/2)
		for i := range acct {
			acct[i] = oddAcct(rng)
		}
		nps := make([]NodePower, n)
		for i := range nps {
			nps[i] = NodePower{Node: oddStrings[rng.Intn(len(oddStrings))], PowerW: oddFloats[rng.Intn(len(oddFloats))]}
		}

		batch := Batch{ID: oddStrings[round%len(oddStrings)], Node: oddStrings[(round/3)%len(oddStrings)], Records: recs, Acct: acct}
		bf, _ := EncodeBatch(batch)
		if got, err := bf.AsBatch(); err != nil || !sameBits(got, batch) {
			t.Fatalf("round %d: batch came back as %+v (err %v)", round, got, err)
		}
		ack := Ack{BatchID: batch.ID, Accepted: rng.Intn(1 << 30), Duplicate: -rng.Intn(9), Replaced: round}
		af, _ := EncodeAck(ack)
		id, got, err := af.ack()
		if got.BatchID = string(id); err != nil || got != ack || !af.AcksBatch(batch.ID) {
			t.Fatalf("round %d: ack came back as %+v (err %v)", round, got, err)
		}
		ef := Frame{Type: TypeError, Payload: AppendError(nil, batch.Node)}
		if got, err := ef.AsError(); err != nil || got.Message != batch.Node {
			t.Fatalf("round %d: error came back as %+v (err %v)", round, got, err)
		}
		q := Query{Kind: []string{QueryAcctJobs, QuerySummary, "", "no_such_kind"}[round%4], Job: batch.ID, Step: batch.Node, User: batch.ID,
			Since: oddFloats[round%len(oddFloats)], Limit: round - 5, Cursor: oddStrings[(round/2)%len(oddStrings)]}
		qf, _ := EncodeQuery(q)
		if got, err := qf.AsQuery(); err != nil || !sameBits(got, q) {
			t.Fatalf("round %d: query came back as %+v (err %v)", round, got, err)
		}

		gen := Generation{Gen: []uint64{0, 1, math.MaxUint64, rng.Uint64()}[round%4]}
		page := accounting.Page{Records: acct, Next: oddStrings[round%len(oddStrings)], Total: round * 1000}
		for _, c := range []struct {
			kind string
			in   any
			out  any
		}{
			{QueryAcctJobs, page, new(accounting.Page)},
			{QueryNodePowers, nps, new([]NodePower)},
			{QueryGeneration, gen, new(Generation)},
			{QuerySummary, eard.JobSummary{JobID: "j", StepID: "0", Nodes: n, EnergyJ: 1e-9}, new(eard.JobSummary)},
		} {
			rp, err := noConn.AppendResult(nil, c.kind, c.in)
			if err != nil {
				t.Fatalf("round %d: encode %s: %v", round, c.kind, err)
			}
			res, err := Frame{Type: TypeResult, Payload: rp}.AsResult()
			if err != nil || res.Kind != c.kind {
				t.Fatalf("round %d: %s result came back as kind %q (err %v)", round, c.kind, res.Kind, err)
			}
			if err := res.Decode(c.out); err != nil {
				t.Fatalf("round %d: decode %s: %v", round, c.kind, err)
			}
			if got := reflect.ValueOf(c.out).Elem(); !bitEqual(got, reflect.ValueOf(c.in)) {
				t.Fatalf("round %d: %s came back as %+v, want %+v", round, c.kind, got, c.in)
			}
		}
		ch := Changes{Records: recs, Acct: acct, Powers: nps}
		rp, err := noConn.AppendResult(nil, QueryChanges, &ch)
		var back Changes
		if err == nil {
			var res Result
			if res, err = (Frame{Type: TypeResult, Payload: rp}).AsResult(); err == nil {
				err = res.Decode(&back)
			}
		}
		if err != nil || !bitEqual(reflect.ValueOf(back), reflect.ValueOf(ch)) {
			t.Fatalf("round %d: changes came back as %+v (err %v), want %+v", round, back, err, ch)
		}
	}
}

func TestResultShapeMismatch(t *testing.T) {
	if _, err := noConn.AppendResult(nil, QueryChanges, []NodePower{}); err == nil {
		t.Error("changes result encoded from node powers")
	}
	for _, kind := range []string{"no_such_kind", "", "records", "acct_records"} {
		if _, err := noConn.AppendResult(nil, kind, 1); err == nil {
			t.Errorf("unknown result kind %q encoded", kind)
		}
	}
	p, err := noConn.AppendResult(nil, QueryGeneration, Generation{Gen: 9})
	if err != nil {
		t.Fatal(err)
	}
	rf := Frame{Type: TypeResult, Payload: p}
	res, err := rf.AsResult()
	if err != nil {
		t.Fatal(err)
	}
	var nps []NodePower
	if err := res.Decode(&nps); err == nil {
		t.Error("generation result decoded into node powers")
	}
	rf.Payload = append(rf.Payload, 0)
	if res, err := rf.AsResult(); err == nil {
		var g Generation
		if err := res.Decode(&g); !errors.Is(err, ErrPayload) {
			t.Errorf("trailing byte after a generation body: err = %v, want ErrPayload", err)
		}
	}
}

// A batch names each distinct string once: the wire size per record is
// the seven floats plus a byte per string field, give or take.
func TestBatchStringsWrittenOncePerFrame(t *testing.T) {
	b := benchBatch()
	f, _ := EncodeBatch(b)
	if per := float64(len(f.Payload)) / float64(len(b.Records)+len(b.Acct)); per > 80 {
		t.Errorf("%.1f payload bytes per record, want <= 80", per)
	}
	if n := bytes.Count(f.Payload, []byte("min_energy")); n != 1 {
		t.Errorf("the policy name appears %d times in the payload, want once", n)
	}
}

// benchBatch is a batch of the load generator's shape: one node's 24
// job records over three jobs and 8 accounting records over three
// tenants.
func benchBatch() Batch {
	b := Batch{ID: "node00042/7", Node: "node00042"}
	for j := 0; j < 24; j++ {
		p := 250 + float64(j)
		b.Records = append(b.Records, eard.JobRecord{
			JobID: "job" + string(rune('0'+j%3)), StepID: string(rune('0' + j/3)), Node: b.Node,
			App: "BT-MZ.C", Policy: "min_energy", TimeSec: 120, EnergyJ: p * 120, AvgPower: p, AvgCPU: 2.1, AvgIMC: 2.4,
		})
	}
	for w := 0; w < 8; w++ {
		b.Acct = append(b.Acct, accounting.Record{
			V: accounting.CodecVersion, JobID: "job" + string(rune('0'+w%3)), StepID: "0", User: []string{"alice", "bob", "carol"}[w%3],
			Node: b.Node, Policy: "min_energy", Phase: w / 2, StartSec: 120 * float64(w/2), EndSec: 120 * float64(w/2+1),
			PkgJ: 21000.5, DramJ: 3100.25, UncoreJ: 4000.125, NodeJ: 31000, AvgCPUGHz: 2.1, AvgIMCGHz: 2.4,
		})
	}
	return b
}

// TestEncodeBatchAllocations: one batch out, encoded and framed as
// BenchmarkWireEncodeBatch does, allocates its payload and nothing else.
func TestEncodeBatchAllocations(t *testing.T) {
	batch := benchBatch()
	want := 1.0
	if raceOn {
		want++ // the payload grows from nothing
	}
	if n := testing.AllocsPerRun(50, func() {
		f, err := EncodeBatch(batch)
		if err == nil {
			err = WriteFrame(io.Discard, f, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
	}); n != want {
		t.Errorf("a 24+8-record batch encoded and framed: %v allocations, want %v", n, want)
	}
}

// BenchmarkWireEncodeBatch is one batch out: encode and frame, the
// client's share of a delivery.
func BenchmarkWireEncodeBatch(b *testing.B) {
	batch := benchBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := EncodeBatch(batch)
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteFrame(io.Discard, f, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeBatch is one batch in: read the frame and decode
// it into reused slices, the server's share.
func BenchmarkWireDecodeBatch(b *testing.B) {
	f, _ := EncodeBatch(benchBatch())
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f, 0); err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	var into Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(buf.Bytes())
		f, err := ReadFrame(rd, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.DecodeBatch(&into); err != nil {
			b.Fatal(err)
		}
	}
}
