package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"goear/internal/eard"
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

// TestTrimLetsTheReadBufferGo: a connection that has read a frame past
// its first buffer keeps the larger buffer for the frames after it;
// Trim lets it go, unless bytes read ahead wait in it.
func TestTrimLetsTheReadBufferGo(t *testing.T) {
	var stream bytes.Buffer
	for _, n := range []int{MaxKept - HeaderRoom, 8, 8} {
		if err := WriteFrame(&stream, Frame{Type: TypeResult, Payload: make([]byte, n)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	c := Conn{MaxPayload: connLimit}
	c.Reset(&chunked{data: stream.Bytes()})
	if _, err := c.Read(); err != nil {
		t.Fatal(err)
	}
	if len(c.rbuf) <= firstBuf {
		t.Fatalf("a %d-byte frame was read in a buffer of %d bytes", MaxKept-HeaderRoom, len(c.rbuf))
	}
	buf := &c.rbuf[0]
	if _, err := c.Read(); err != nil || &c.rbuf[0] != buf {
		t.Fatalf("the next frame took a buffer of its own (err %v)", err)
	}
	if c.r == c.w {
		t.Fatal("nothing was read ahead: the test cannot tell a Trim that waits")
	}
	c.Trim()
	if &c.rbuf[0] != buf {
		t.Fatal("Trim dropped bytes read ahead")
	}
	if _, err := c.Read(); err != nil {
		t.Fatal(err)
	}
	c.Trim()
	if len(c.rbuf) != 0 {
		t.Errorf("after Trim the connection holds a read buffer of %d bytes", len(c.rbuf))
	}
}

// batchStream is a seeded reporter's stream of n batch frames over one
// connection, as a shard reads it: three nodes, jobs named again and
// new ones, awkward strings and values, every sixteenth batch a literal
// longer than a block, and frame cut — when it is one of the n — stopping its
// body half-way, its length prefix telling the truth.
func batchStream(tb testing.TB, seed int64, n, cut int) []byte {
	return mixedStream(tb, seed, n, cut, 0)
}

// mixedStream is batchStream with about one frame in everyQuery a query
// instead (none for 0), as an admin's connection to a root carries
// them between a late writer's batches: known kinds and odd ones, users
// and jobs named again, a new cursor most pages, awkward strings and
// values, every sixteenth query a cursor longer than a block. A batch
// stream draws no number more than batchStream always has.
func mixedStream(tb testing.TB, seed int64, n, cut, everyQuery int) []byte {
	rng := rand.New(rand.NewSource(seed))
	jobs := []string{"job0"}
	job := func() string { return jobs[rng.Intn(len(jobs))] }
	odd := func() string { return oddStrings[rng.Intn(len(oddStrings))] }
	kinds := []string{QueryAcctJobs, QueryAcctJobs, QueryNodePowers, QueryAggregate, "no_such_kind"}
	users := []string{"alice", "bob", "", "\x00\x1f"}
	cursor := ""
	var stream bytes.Buffer
	for i := 0; i < n; i++ {
		var t Type
		var p []byte
		if everyQuery > 0 && rng.Intn(everyQuery) == 0 {
			if rng.Intn(4) > 0 {
				cursor = fmt.Sprintf("c%d-%s", i, job())
			}
			q := Query{Kind: kinds[rng.Intn(len(kinds))], Job: job(), Step: odd(), User: users[rng.Intn(len(users))],
				Cursor: cursor, Since: oddFloats[rng.Intn(len(oddFloats))], Limit: rng.Intn(400) - 100}
			if i%16 == 7 {
				q.Cursor = strings.Repeat(string(rune('A'+i%26)), maxBlock+1+rng.Intn(maxBlock))
			}
			t, p = TypeQuery, AppendQuery(nil, q)
		} else {
			node := fmt.Sprintf("n%02d", rng.Intn(3))
			if rng.Intn(3) == 0 {
				jobs = append(jobs, fmt.Sprintf("job%d", len(jobs)))
			}
			b := Batch{ID: fmt.Sprintf("%s/%d", node, i), Node: node}
			for r := rng.Intn(6); r > 0; r-- {
				rec := oddRecord(rng)
				rec.JobID, rec.Node = job(), node
				b.Records = append(b.Records, rec)
			}
			for r := rng.Intn(3); r > 0; r-- {
				ar := oddAcct(rng)
				ar.JobID, ar.Node = job(), node
				b.Acct = append(b.Acct, ar)
			}
			if i%16 == 15 {
				long := strings.Repeat(string(rune('a'+i%26)), maxBlock+1+rng.Intn(maxBlock))
				b.Records = append(b.Records, eard.JobRecord{JobID: job(), Node: node, App: long})
			}
			t, p = TypeBatch, appendBatch(nil, b)
		}
		if i == cut {
			p = p[:len(p)/2]
		}
		if err := WriteFrame(&stream, Frame{Type: t, Payload: p}, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return stream.Bytes()
}

// kept is the table c's next frame meets: the last decoded frame's,
// none before c has a literal state.
func kept(c *Conn) (last [linearTable]string, n int) {
	if c.lits != nil {
		last, n = c.lits.last, c.lits.n
	}
	return last, n
}

// streamAgrees reads stream in the given chunks through one Conn and
// decodes every batch frame with Conn.DecodeBatch into one scratch
// batch, as a shard does, and every query frame with Conn.DecodeQuery,
// as a root serving an admin does. Each decode must give what a fresh
// Frame.DecodeBatch or Frame.AsQuery of the same frame gives — the same
// value, or the same error — and a failed one must leave the
// connection's last table as it was. Once the stream is read, every
// string handed out must still read as it did when handed out: nothing
// a later frame brings overwrites it. It returns how many frames failed
// to decode.
func streamAgrees(t *testing.T, stream, sizes []byte) (failed int) {
	t.Helper()
	c := Conn{MaxPayload: connLimit}
	c.Reset(&chunked{data: stream, sizes: sizes})
	type handed struct{ s, was string }
	var out []handed
	hand := func(ss ...string) {
		for _, s := range ss {
			out = append(out, handed{s, strings.Clone(s)})
		}
	}
	var b Batch
	for i := 0; ; i++ {
		f, err := c.Read()
		if err != nil {
			break
		}
		if f.Type != TypeBatch && f.Type != TypeQuery {
			continue
		}
		fresh := Frame{Type: f.Type, Payload: bytes.Clone(f.Payload)}
		last, n := kept(&c)
		var got, want any
		var wantErr error
		if f.Type == TypeBatch {
			want, wantErr = fresh.AsBatch()
			err = c.DecodeBatch(f, &b)
			got = b
			hand(b.ID, b.Node)
			for _, r := range b.Records {
				hand(r.JobID, r.StepID, r.Node, r.App, r.Policy)
			}
			for _, r := range b.Acct {
				hand(r.JobID, r.StepID, r.User, r.Node, r.Policy)
			}
		} else {
			want, wantErr = fresh.AsQuery()
			var q Query
			q, err = c.DecodeQuery(f)
			got = q
			hand(q.Kind, q.Job, q.Step, q.User, q.Cursor)
		}
		switch {
		case (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()):
			t.Fatalf("frame %d: the connection's %s decode fails with %v, the fresh one with %v", i, f.Type, err, wantErr)
		case err != nil:
			failed++
			if l, m := kept(&c); l != last || m != n {
				t.Fatalf("frame %d: a failed %s decode moved the last table", i, f.Type)
			}
		case !sameBits(got, want):
			t.Fatalf("frame %d: the connection decodes %+v, a fresh decode %+v", i, got, want)
		}
	}
	for i, h := range out {
		if h.s != h.was {
			t.Fatalf("string %d, handed out as %q, reads %q once the stream is read", i, h.was, h.s)
		}
	}
	return failed
}

// TestConnDecodeBatchStream holds a connection's kept literal state —
// its block and the last batch's table — to a fresh decode of every
// frame, over seeded streams of 40 batches with one cut short, read in
// several chunkings.
func TestConnDecodeBatchStream(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		stream := batchStream(t, seed, 40, int(seed)*2)
		for _, sizes := range [][]byte{nil, {0}, {11, 0, 29}, {255}} {
			if failed := streamAgrees(t, stream, sizes); failed != 1 {
				t.Fatalf("seed %d: %d frames failed to decode, want the one cut short", seed, failed)
			}
		}
	}
}

// TestConnDecodeQueryStream holds the same kept state to a fresh
// decode over seeded streams of 40 frames, about one in three a query,
// with one frame — a batch or a query — cut short: batches and queries
// decode through the one literal state, and a query that follows a
// batch, or a batch a query, may meet the other's table.
func TestConnDecodeQueryStream(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		stream := mixedStream(t, seed, 40, int(seed)*2, 3)
		for _, sizes := range [][]byte{nil, {0}, {11, 0, 29}, {255}} {
			if failed := streamAgrees(t, stream, sizes); failed != 1 {
				t.Fatalf("seed %d: %d frames failed to decode, want the one cut short", seed, failed)
			}
		}
	}
}

// FuzzBatchStream is TestConnDecodeBatchStream over streams the input
// chooses — seed, length and the frame cut short — with one byte of
// them xored and read in chunks, both as it chooses: whatever arrives,
// a batch decoded through the connection equals its fresh decode, a
// failed one leaves the last table alone, and no string handed out
// changes. (The stream is built, not taken from the input: a stream of
// a few kilobytes is slow to minimise.)
func FuzzBatchStream(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(255), uint16(0), uint8(0), []byte{})
	f.Add(int64(2), uint8(20), uint8(3), uint16(0), uint8(0), []byte{0, 11, 200})
	f.Add(int64(3), uint8(8), uint8(255), uint16(1000), uint8(0x40), []byte{63})
	f.Fuzz(func(t *testing.T, seed int64, n, cut uint8, at uint16, xor uint8, sizes []byte) {
		stream := batchStream(t, seed, int(n%32), int(cut))
		if len(stream) > 0 {
			stream[int(at)%len(stream)] ^= xor
		}
		streamAgrees(t, stream, sizes)
	})
}

// FuzzQueryStream is TestConnDecodeQueryStream over streams the input
// chooses, as FuzzBatchStream chooses its batch streams, and with the
// share of queries the input chooses too: whatever arrives, a query or
// a batch decoded through the connection equals its fresh decode, a
// failed one leaves the last table alone, and no string handed out
// changes.
func FuzzQueryStream(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(255), uint8(3), uint16(0), uint8(0), []byte{})
	f.Add(int64(2), uint8(20), uint8(3), uint8(0), uint16(0), uint8(0), []byte{0, 11, 200})
	f.Add(int64(3), uint8(12), uint8(255), uint8(2), uint16(300), uint8(0x40), []byte{63})
	f.Fuzz(func(t *testing.T, seed int64, n, cut, every uint8, at uint16, xor uint8, sizes []byte) {
		stream := mixedStream(t, seed, int(n%32), int(cut), 1+int(every%4))
		if len(stream) > 0 {
			stream[int(at)%len(stream)] ^= xor
		}
		streamAgrees(t, stream, sizes)
	})
}
