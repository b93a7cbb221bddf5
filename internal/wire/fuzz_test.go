package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry/trace"
)

// traceZeros is a full-length trace block with a valid version but a
// zero trace ID — the non-canonical form the decoder must refuse.
func traceZeros() []byte {
	blk := make([]byte, traceBlockLen)
	blk[0] = byte(traceBlockVersion)
	return blk
}

// frameSeeds is FuzzFrame's seed corpus: whole frames as they travel.
func frameSeeds(tb testing.TB) [][]byte {
	// Well-formed frames of every type ...
	batch, err := EncodeBatch(Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		{JobID: "1", StepID: "0", Node: "n01", TimeSec: 1, EnergyJ: 100, AvgPower: 100},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	frames := []Frame{batch}
	if ack, err := EncodeAck(Ack{BatchID: "n01/1", Accepted: 1}); err == nil {
		frames = append(frames, ack)
	}
	frames = append(frames, Frame{Type: TypeError, Payload: AppendError(nil, "boom")})
	if q, err := EncodeQuery(Query{Kind: QueryStats}); err == nil {
		frames = append(frames, q)
	}
	// Traced variants exercise the optional context block.
	traced := batch
	traced.Trace = trace.Context{TraceID: 0x1122334455667788, SpanID: 0x99AABBCCDDEEFF00, Flags: 3}
	frames = append(frames, traced)
	var seeds [][]byte
	for _, s := range frames {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, s, 0); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	// ... and deliberately broken headers: bad magic, future version,
	// unknown type, reserved flags, lying length prefixes, malformed
	// trace blocks.
	return append(seeds,
		header(0xDEADBEEF, Version, 2, 0, 0),
		header(Magic, Version+3, 2, 0, 0),
		header(Magic, Version, 250, 0, 0),
		header(Magic, Version, 2, 0xFFFF, 0),
		header(Magic, Version, 2, 0, 0xFFFFFFFF),
		append(header(Magic, Version, 2, 0, 100), "short"...),
		header(Magic, Version, 2, uint16(FlagTrace), 0),                          // flag with no block
		append(header(Magic, Version, 2, uint16(FlagTrace), 0), 9, 0),            // future block version
		append(header(Magic, Version, 2, uint16(FlagTrace), 0), traceZeros()...), // zero trace id
	)
}

// FuzzFrame hammers the decoder with arbitrary bytes and checks the
// codec's two safety contracts: decoding never panics whatever the
// input (malformed length prefixes, truncated payloads, version skew
// all surface as errors), and any frame that does decode re-encodes
// byte-identically — the codec has one canonical wire form.
func FuzzFrame(f *testing.F) {
	for _, seed := range frameSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data), 4096)
		if err != nil {
			// Every failure must be a typed protocol error (payload bytes
			// are opaque at this level), and EOF conditions must be the io
			// sentinels.
			if errors.Is(err, ErrMagic) || errors.Is(err, ErrVersion) ||
				errors.Is(err, ErrType) || errors.Is(err, ErrFlags) ||
				errors.Is(err, ErrTooLarge) || errors.Is(err, ErrTrace) ||
				errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return
			}
			t.Fatalf("unexpected error class: %v", err)
		}
		// Decoded frames re-encode to the exact consumed bytes (header,
		// optional trace block, payload).
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr, 4096); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		consumed := headerLen + len(fr.Payload)
		if fr.Trace.Valid() {
			consumed += traceBlockLen
		}
		if want := data[:consumed]; !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", buf.Bytes(), want)
		}
		// Typed payload decoding must never panic either, whatever the
		// payload holds, and fails only as ErrPayload.
		var perr error
		switch fr.Type {
		case TypeBatch:
			_, perr = fr.AsBatch()
		case TypeAck:
			_, _, perr = fr.ack()
		case TypeError:
			_, perr = fr.AsError()
		case TypeQuery:
			_, perr = fr.AsQuery()
		case TypeResult:
			_, perr = fr.AsResult()
		}
		if perr != nil && !errors.Is(perr, ErrPayload) {
			t.Fatalf("payload error outside ErrPayload: %v", perr)
		}
	})
}

// allocatedBy reports the heap bytes allocated while fn runs, read
// from the runtime's cumulative counter without stopping the world
// (inside a fuzz worker runtime.ReadMemStats takes milliseconds). An
// allocation of 32 KiB or more is counted at once, smaller ones when
// their span is retired, so the figure can run a few spans late.
func allocatedBy(fn func()) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	fn()
	metrics.Read(sample)
	return sample[0].Value.Uint64() - before
}

// decodeBudget is the most a decoder may allocate for an input of n
// bytes: a small multiple of it (the worst case is a run of two-byte
// string literals, sixteen bytes of table each, doubled by slice
// growth) plus slack — an error value where the count is exact, the
// counter's lag where it is not. A count or length that is believed
// before the bytes behind it are seen blows through this by orders of
// magnitude.
func decodeBudget(n int, slack uint64) uint64 { return uint64(24*n) + slack }

// fuzzSlack covers allocatedBy's lag.
const fuzzSlack = 1 << 20

// TestDecodeAllocationBounded holds the decoders to the budget exactly
// (ReadMemStats is cheap outside a fuzz worker) on the inputs built to
// break it: counts and lengths that promise far more than follows.
func TestDecodeAllocationBounded(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f}    // 2^32-1 as a varint
	hugeStr := []byte{0xfe, 0xff, 0xff, 0xff, 0x0f} // the tag of a 2^31-1 byte literal
	whole, _ := EncodeBatch(benchBatch())
	cases := map[string]Frame{
		"batch: huge record count":    {Type: TypeBatch, Payload: append([]byte{0, 0}, huge...)},
		"batch: huge acct count":      {Type: TypeBatch, Payload: append([]byte{0, 0, 0}, huge...)},
		"batch: count fits, then EOF": {Type: TypeBatch, Payload: append([]byte{0, 0, 100}, make([]byte, 100*minRecordLen-1)...)},
		"batch: huge string length":   {Type: TypeBatch, Payload: append(bytes.Clone(hugeStr), 'x')},
		"batch: cut short":            {Type: TypeBatch, Payload: whole.Payload[:len(whole.Payload)/2]},
		"ack: huge string length":     {Type: TypeAck, Payload: hugeStr},
	}
	for code, kind := range resultKinds[5:] {
		if kind != "" {
			cases[kind+" result: huge count"] = Frame{Type: TypeResult, Payload: append([]byte{byte(code + 5)}, huge...)}
		}
	}
	decode := func(f Frame) (err error) {
		switch f.Type {
		case TypeBatch:
			_, err = f.AsBatch()
		case TypeAck:
			_, _, err = f.ack()
		case TypeResult:
			var res Result
			if res, err = f.AsResult(); err == nil {
				err = res.Decode(map[string]any{
					QueryNodePowers: new([]NodePower), QueryAcctJobs: new(accounting.Page),
					QueryGeneration: new(Generation), QueryChanges: new(Changes),
				}[res.Kind])
			}
		}
		return err
	}
	for name, f := range cases {
		// TotalAlloc is process-wide: whatever another goroutine
		// allocates while a decode runs is charged to it. The least of
		// several decodes is the decoder's own.
		var err error
		got := uint64(math.MaxUint64)
		for range 5 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err = decode(f)
			runtime.ReadMemStats(&m1)
			got = min(got, m1.TotalAlloc-m0.TotalAlloc)
		}
		if !errors.Is(err, ErrPayload) {
			t.Errorf("%s: err = %v, want ErrPayload", name, err)
		}
		if max := decodeBudget(len(f.Payload), 4<<10); got > max {
			t.Errorf("%s: decoding %d bytes allocated %d, budget %d", name, len(f.Payload), got, max)
		}
	}
}

// batchSeeds is FuzzBatchPayload's seed corpus: batch bodies.
func batchSeeds() [][]byte {
	var seeds [][]byte
	for _, b := range []Batch{{}, {ID: "n01/1", Node: "n01"}, benchBatch()} {
		seeds = append(seeds, appendBatch(nil, b))
	}
	return append(seeds,
		[]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},        // a count of 2^32-1 records and no bytes
		[]byte{0xfe, 0xff, 0xff, 0xff, 0x0f, 'x'},         // a string of 2^31-1 bytes, one present
		[]byte{2, 'a', 0, 1, 9, 9, 9, 9, 9},               // back-references past the table
		append(appendBatch(nil, Batch{ID: "x"}), 0, 0, 0), // trailing bytes
	)
}

// FuzzBatchPayload feeds arbitrary bytes to the batch body decoder:
// it never panics and never allocates more than a small multiple of
// its input; whatever decodes re-encodes to bytes that decode to an
// equal value, and those bytes are a fixed point of decode∘encode.
func FuzzBatchPayload(f *testing.F) {
	for _, seed := range batchSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Batch
		var err error
		if got := allocatedBy(func() { b, err = Frame{Type: TypeBatch, Payload: data}.AsBatch() }); got > decodeBudget(len(data), fuzzSlack) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			if !errors.Is(err, ErrPayload) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		again := appendBatch(nil, b)
		b2, err := Frame{Type: TypeBatch, Payload: again}.AsBatch()
		if err != nil || !sameBits(b, b2) {
			t.Fatalf("re-encoded batch decodes to %+v (err %v), want %+v", b2, err, b)
		}
		if third := appendBatch(nil, b2); !bytes.Equal(third, again) {
			t.Fatalf("encoder output is not a fixed point:\n %x\n %x", again, third)
		}
	})
}

// resultSeeds is FuzzResultPayload's seed corpus: result payloads.
func resultSeeds(tb testing.TB) [][]byte {
	b := benchBatch()
	var seeds [][]byte
	for _, seed := range []struct {
		kind string
		data any
	}{
		{QueryChanges, Changes{Records: b.Records}},
		{QueryChanges, Changes{Acct: b.Acct}},
		{QueryAcctJobs, accounting.Page{Records: b.Acct, Next: "bmV4dA", Total: 99}},
		{QueryNodePowers, []NodePower{{Node: "n01", PowerW: 271.5}, {Node: "n02", PowerW: 0}}},
		{QueryGeneration, Generation{Gen: math.MaxUint64}},
		{QueryStats, map[string]int{"batches": 3}},
	} {
		p, err := noConn.AppendResult(nil, seed.kind, seed.data)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, p)
	}
	return append(seeds,
		[]byte{},
		[]byte{0},
		[]byte{200},
		[]byte{6, 0xff, 0xff, 0xff, 0xff, 0x0f}, // the retired records kind: a huge count and no bytes
	)
}

// eachAgreesWithDecode holds the streaming decode of a changes result
// to the slice decode of the same body, whose outcome was v and err:
// the same elements in the same order, or both fail with ErrPayload.
// Any other kind must refuse to stream, and a part leaves the answer
// open.
func eachAgreesWithDecode(t *testing.T, res Result, v any, err error) {
	t.Helper()
	var s ChangesReader
	if res.Kind != QueryChanges {
		if done, err := s.Apply(res, keep[eard.JobRecord](nil), keep[accounting.Record](nil), keep[NodePower](nil)); done || (err == nil) != (res.Kind == ChangesPart) {
			t.Fatalf("a %s result streamed as changes: closed %v, err %v", res.Kind, done, err)
		}
		return
	}
	// Compared part by part: the slice decode of a body that fails
	// leaves the parts before the fault decoded and the rest empty.
	ch, want := Changes{Records: []eard.JobRecord{}, Acct: []accounting.Record{}, Powers: []NodePower{}}, v.(*Changes)
	done, eachErr := s.Apply(res, keep(&ch.Records), keep(&ch.Acct), keep(&ch.Powers))
	if (eachErr != nil) != (err != nil) || (eachErr != nil && !errors.Is(eachErr, ErrPayload)) || done != (eachErr == nil) {
		t.Fatalf("%s: streaming decode closed %v, err = %v, slice decode err = %v", res.Kind, done, eachErr, err)
	}
	if err == nil && !sameBits(ch, *want) {
		t.Fatalf("%s: streamed changes differ from the decoded ones\n got %+v\nwant %+v", res.Kind, ch, *want)
	}
}

// keep returns an element callback that appends to *dst, or drops the
// element for a nil dst.
func keep[T any](dst *[]T) func(T) error {
	return func(v T) error {
		if dst != nil {
			*dst = append(*dst, v)
		}
		return nil
	}
}

// FuzzResultPayload is FuzzBatchPayload for result bodies. The
// allocation bound covers the binary kinds; the four JSON kinds are
// held only to never panicking (encoding/json's allocation per input
// byte is its own business).
func FuzzResultPayload(f *testing.F) {
	b := benchBatch()
	changes, err := noConn.AppendResult(nil, QueryChanges, &Changes{Records: b.Records, Acct: b.Acct, Powers: []NodePower{{Node: "n01", PowerW: 271.5}}})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range append(resultSeeds(f), changes) {
		f.Add(seed)
		f.Add(seed[:2*len(seed)/3]) // a dump that fails part-way
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Frame{Type: TypeResult, Payload: data}.AsResult()
		if err != nil {
			if !errors.Is(err, ErrPayload) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		targets := map[string]func() any{
			QueryAcctJobs:   func() any { return new(accounting.Page) },
			QueryNodePowers: func() any { return new([]NodePower) },
			QueryGeneration: func() any { return new(Generation) },
			QueryChanges:    func() any { return new(Changes) },
		}
		target, binary := targets[res.Kind]
		if !binary {
			var v any
			_ = res.Decode(&v)
			return
		}
		v := target()
		if got := allocatedBy(func() { err = res.Decode(v) }); got > decodeBudget(len(data), fuzzSlack) {
			t.Fatalf("decoding %d bytes of %s allocated %d", len(data), res.Kind, got)
		}
		eachAgreesWithDecode(t, res, v, err)
		if err != nil {
			if !errors.Is(err, ErrPayload) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		value := reflect.ValueOf(v).Elem().Interface()
		again, err := noConn.AppendResult(nil, res.Kind, value)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := Frame{Type: TypeResult, Payload: again}.AsResult()
		if err != nil || res2.Kind != res.Kind {
			t.Fatalf("re-encoded %s result reads as %q (err %v)", res.Kind, res2.Kind, err)
		}
		v2 := target()
		if err := res2.Decode(v2); err != nil || !sameBits(reflect.ValueOf(v2).Elem().Interface(), value) {
			t.Fatalf("re-encoded %s decodes to %+v (err %v), want %+v", res.Kind, v2, err, value)
		}
		third, err := noConn.AppendResult(nil, res.Kind, reflect.ValueOf(v2).Elem().Interface())
		if err != nil || !bytes.Equal(third, again) {
			t.Fatalf("encoder output is not a fixed point (err %v):\n %x\n %x", err, again, third)
		}
	})
}
