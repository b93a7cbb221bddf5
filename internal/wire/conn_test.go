package wire

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"goear/internal/telemetry/trace"
)

// chunked is a transport that delivers data in chunks of 1 to 256
// bytes, their sizes cycling through sizes, then io.EOF; and records
// every Write it is handed.
type chunked struct {
	data   []byte
	sizes  []byte
	next   int
	writes [][]byte
}

func (c *chunked) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(c.data)
	if len(c.sizes) > 0 {
		n = min(n, 1+int(c.sizes[c.next%len(c.sizes)]))
		c.next++
	}
	n = copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

func (c *chunked) Write(p []byte) (int, error) {
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

// connLimit is the payload limit of the read tests: past MaxKept, so
// that a stream can hold frames the connection keeps and frames it
// reads into a payload of their own.
const connLimit = 2 * MaxKept

// readAll reads stream to its first error through next, copying every
// payload (a Conn's is valid until its next read only).
func readAll(next func() (Frame, error)) ([]Frame, error) {
	var frames []Frame
	for {
		f, err := next()
		if err != nil {
			return frames, err
		}
		f.Payload = bytes.Clone(f.Payload)
		frames = append(frames, f)
	}
}

// connAgreesWithReadFrame holds a Conn reading stream in the given
// chunks to ReadFrame reading it from memory: the same frames, then the
// same error.
func connAgreesWithReadFrame(t *testing.T, stream, sizes []byte) {
	t.Helper()
	rd := bytes.NewReader(stream)
	want, wantErr := readAll(func() (Frame, error) { return ReadFrame(rd, connLimit) })
	c := Conn{MaxPayload: connLimit}
	c.Reset(&chunked{data: stream, sizes: sizes})
	got, gotErr := readAll(c.Read)
	if gotErr.Error() != wantErr.Error() || errors.Is(gotErr, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF) ||
		(gotErr == io.EOF) != (wantErr == io.EOF) {
		t.Fatalf("after %d frames Conn.Read fails with %q, ReadFrame with %q", len(got), gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("Conn.Read yields %d frames, ReadFrame %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].Trace != want[i].Trace || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("frame %d: Conn.Read yields %s (%d bytes, trace %v), ReadFrame %s (%d bytes, trace %v)", i,
				got[i].Type, len(got[i].Payload), got[i].Trace, want[i].Type, len(want[i].Payload), want[i].Trace)
		}
	}
	if len(c.rbuf) > MaxKept {
		t.Fatalf("the connection is left holding a read buffer of %d bytes", len(c.rbuf))
	}
}

// connSeeds is FuzzConnRead's seed corpus: FuzzFrame's frames and
// broken headers one by one, and all of them back to back — a pipelined
// stream that ends in an error.
func connSeeds(tb testing.TB) [][]byte {
	seeds := frameSeeds(tb)
	var pipelined []byte
	for _, s := range seeds {
		pipelined = append(pipelined, s...)
	}
	return append(seeds, pipelined)
}

// TestConnReadMatchesReadFrame runs the fuzz corpus, and what is kept
// out of it for being slow to minimise: streams around frames too
// large to keep, whole and cut short.
func TestConnReadMatchesReadFrame(t *testing.T) {
	var large bytes.Buffer
	for _, f := range []Frame{
		{Type: TypeAck, Payload: []byte("before")},
		{Type: TypeResult, Payload: bytes.Repeat([]byte("dump"), MaxKept/4+3)},
		{Type: TypeResult, Payload: bytes.Repeat([]byte{7}, MaxKept-headerLen), Trace: trace.Context{TraceID: 1, SpanID: 2}},
		{Type: TypeQuery, Payload: []byte("after")},
	} {
		if err := WriteFrame(&large, f, connLimit); err != nil {
			t.Fatal(err)
		}
	}
	for _, stream := range append(connSeeds(t), large.Bytes(), large.Bytes()[:large.Len()-9], large.Bytes()[:MaxKept]) {
		for _, sizes := range [][]byte{nil, {0}, {10}, {11, 0, 29}, {255}, {63, 64, 65}} {
			connAgreesWithReadFrame(t, stream, sizes)
		}
	}
}

// FuzzConnRead delivers arbitrary bytes in arbitrary chunks to a Conn:
// it yields exactly the frames and the error ReadFrame yields for the
// same stream, pipelined frames included, never panics, and — like
// ReadFrame — allocates for what arrives, not for what a header
// announces.
func FuzzConnRead(f *testing.F) {
	for _, seed := range connSeeds(f) {
		f.Add(seed, []byte{})
		f.Add(seed, []byte{0, 11, 200})
	}
	f.Fuzz(func(t *testing.T, stream, sizes []byte) {
		// Both readers run inside the measurement, ReadFrame's fresh
		// payloads included: twice the stream, the copies the comparison
		// keeps, and one frame's worth of belief in a length prefix.
		if got := allocatedBy(func() { connAgreesWithReadFrame(t, stream, sizes) }); got > uint64(8*len(stream)+2*connLimit)+fuzzSlack {
			t.Fatalf("reading a %d-byte stream allocated %d bytes", len(stream), got)
		}
	})
}

// A length prefix is a claim, not a fact, to a Conn as to ReadFrame: a
// header announcing the largest frame the limit allows, followed by
// nothing, costs the reader next to nothing.
func TestConnDoesNotTrustLengthPrefix(t *testing.T) {
	const limit = 256 << 20
	c := Conn{MaxPayload: limit}
	c.Reset(&chunked{data: header(Magic, Version, uint8(TypeResult), 0, limit)})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := c.Read()
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error = %v, want wrapped io.ErrUnexpectedEOF", err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 2<<20 {
		t.Errorf("a 12-byte header made Conn.Read allocate %d bytes", got)
	}
}

// TestConnWriteMatchesWriteFrame: whatever the frame type, traced or
// not, sent from a caller's image or from the connection's own, a Conn
// hands its transport in one Write the bytes WriteFrame hands its
// writer in two — and writes to nothing of the image but its room.
func TestConnWriteMatchesWriteFrame(t *testing.T) {
	batch, _ := EncodeBatch(benchBatch())
	ack, _ := EncodeAck(Ack{BatchID: "node00042/7", Accepted: 24, Duplicate: 8})
	ef := Frame{Type: TypeError, Payload: AppendError(nil, "batch node00042/7: bad record")}
	query, _ := EncodeQuery(Query{Kind: QueryAcctJobs, User: "alice", Limit: 50, Cursor: "bmV4dA"})
	result, err := noConn.AppendResult(nil, QueryNodePowers, fleetPowers())
	if err != nil {
		t.Fatal(err)
	}
	frames := []Frame{batch, ack, ef, query, {Type: TypeResult, Payload: result}, {Type: TypeResult}}
	if len(frames) != int(typeEnd) {
		t.Fatalf("%d frames for %d frame types and an empty payload", len(frames), typeEnd-1)
	}
	for _, f := range frames {
		for _, tc := range []trace.Context{{}, {TraceID: 0x1122334455667788, SpanID: 0x99AABBCCDDEEFF00, Flags: 3}} {
			f.Trace = tc
			var want bytes.Buffer
			if err := WriteFrame(&want, f, 0); err != nil {
				t.Fatal(err)
			}
			tr := &chunked{}
			var c Conn
			c.Reset(tr)
			image := append(bytes.Repeat([]byte{0xEE}, HeaderRoom), f.Payload...)
			if err := c.WriteImage(f.Type, tc, image); err != nil {
				t.Fatal(err)
			}
			if err := c.Send(f.Type, tc, append(c.Body(), f.Payload...)); err != nil {
				t.Fatal(err)
			}
			if len(tr.writes) != 2 || !bytes.Equal(tr.writes[0], want.Bytes()) || !bytes.Equal(tr.writes[1], want.Bytes()) {
				t.Errorf("%s frame, traced %v: %d writes for two frames, or not WriteFrame's %d bytes each", f.Type, tc.Valid(), len(tr.writes), want.Len())
			}
			if !bytes.Equal(image[HeaderRoom:], f.Payload) {
				t.Errorf("%s frame: sending wrote to the image's body", f.Type)
			}
		}
	}

	// What WriteFrame refuses a Conn refuses, and nothing leaves.
	tr := &chunked{}
	c := Conn{MaxPayload: 64}
	c.Reset(tr)
	if err := c.WriteImage(TypeResult, trace.Context{}, make([]byte, HeaderRoom+65)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("a 65-byte body under a 64-byte limit: %v", err)
	}
	for _, typ := range []Type{0, typeEnd} {
		if err := c.Send(typ, trace.Context{}, c.Body()); !errors.Is(err, ErrType) {
			t.Errorf("frame type %d: %v", typ, err)
		}
	}
	if len(tr.writes) != 0 {
		t.Errorf("%d refused frames were written", len(tr.writes))
	}
}

// TestConnKeepsOnlySmallBuffers: a connection whose frames fit MaxKept
// moves them without allocating once its buffers have grown to them,
// across a Reset too; a frame past MaxKept, read or sent, leaves it
// holding the buffers it had.
func TestConnKeepsOnlySmallBuffers(t *testing.T) {
	small := bytes.Repeat([]byte("page"), 2000)
	var in bytes.Buffer
	if err := WriteFrame(&in, Frame{Type: TypeResult, Payload: small, Trace: trace.Context{TraceID: 9, SpanID: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	tr := &struct {
		bytes.Reader
		io.Writer
	}{Writer: io.Discard}
	var c Conn
	exchange := func() {
		tr.Reset(in.Bytes())
		c.Reset(tr)
		f, err := c.Read()
		if err != nil || !bytes.Equal(f.Payload, small) {
			t.Fatalf("read %d bytes, err %v", len(f.Payload), err)
		}
		if err := c.Send(TypeResult, f.Trace, append(c.Body(), f.Payload...)); err != nil {
			t.Fatal(err)
		}
	}
	exchange()
	if n := testing.AllocsPerRun(20, exchange); n != 0 {
		t.Errorf("a warm connection allocates %v times per %d-byte frame read and sent", n, len(small))
	}
	rbuf, wbuf := &c.rbuf[0], &c.Body()[0]

	large := make([]byte, MaxKept+1)
	var big bytes.Buffer
	if err := WriteFrame(&big, Frame{Type: TypeResult, Payload: large}, 0); err != nil {
		t.Fatal(err)
	}
	tr.Reset(big.Bytes())
	c.Reset(tr)
	f, err := c.Read()
	if err != nil || len(f.Payload) != len(large) {
		t.Fatalf("read %d bytes, err %v", len(f.Payload), err)
	}
	if err := c.Send(TypeResult, trace.Context{}, append(c.Body(), f.Payload...)); err != nil {
		t.Fatal(err)
	}
	if &c.rbuf[0] != rbuf || len(c.rbuf) > MaxKept || &c.Body()[0] != wbuf || cap(c.Body()) > MaxKept {
		t.Errorf("a %d-byte frame left the connection holding %d and %d bytes", len(large), len(c.rbuf), cap(c.Body()))
	}
}
