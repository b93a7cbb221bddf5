package eardbd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/wire"
)

func rec(job, step, node string, power float64) eard.JobRecord {
	return eard.JobRecord{
		JobID: job, StepID: step, Node: node, App: "BT-MZ.C", Policy: "min_energy",
		TimeSec: 100, EnergyJ: power * 100, AvgPower: power,
	}
}

// startServer serves one listener on a background goroutine and
// returns the server plus its address.
func startServer(t *testing.T, network, addr string, cfg Config) (*Server, net.Addr) {
	t.Helper()
	l, err := net.Listen(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eard.NewDB(), cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned: %v", err)
		}
	})
	return srv, l.Addr()
}

// exchange writes one frame and reads the response.
func exchange(t *testing.T, conn net.Conn, f wire.Frame) wire.Frame {
	t.Helper()
	if err := wire.WriteFrame(conn, f, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func mustBatch(t *testing.T, b wire.Batch) wire.Frame {
	t.Helper()
	f, err := wire.EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// outcome is how a server classified one batch, read off its counters:
// records accepted, duplicate and replaced, and whether the batch ID
// itself was a duplicate.
type outcome struct{ accepted, duplicate, replaced, dupBatches int }

// sendAcked sends b over conn, requires the server's ack of it, and
// returns the batch's outcome.
func sendAcked(t *testing.T, srv *Server, conn net.Conn, b wire.Batch) outcome {
	t.Helper()
	before := srv.Stats()
	if resp := exchange(t, conn, mustBatch(t, b)); !resp.AcksBatch(b.ID) {
		t.Fatalf("batch %s answered by a %s frame, not its ack", b.ID, resp.Type)
	}
	after := srv.Stats()
	return outcome{after.RecordsAccepted - before.RecordsAccepted, after.RecordsDuplicate - before.RecordsDuplicate,
		after.RecordsReplaced - before.RecordsReplaced, after.DuplicateBatches - before.DuplicateBatches}
}

func TestServerAcceptsAndAcks(t *testing.T) {
	srv, addr := startServer(t, "tcp", "127.0.0.1:0", Config{})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	b := wire.Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		rec("j1", "0", "n01", 300), rec("j1", "0", "n02", 310),
	}}
	if got := sendAcked(t, srv, conn, b); got != (outcome{accepted: 2}) {
		t.Errorf("first delivery: %+v", got)
	}
	if srv.DB().Len() != 2 {
		t.Errorf("db holds %d records, want 2", srv.DB().Len())
	}

	// The identical batch ID is deduplicated without touching the DB.
	if got := sendAcked(t, srv, conn, b); got != (outcome{dupBatches: 1}) {
		t.Errorf("replay: %+v", got)
	}

	// Same records under a new batch ID: record-level dedup catches
	// them.
	b2 := b
	b2.ID = "n01/2"
	if got := sendAcked(t, srv, conn, b2); got != (outcome{duplicate: 2}) {
		t.Errorf("new-id replay: %+v", got)
	}

	// An updated record for an existing key counts as replaced.
	b3 := wire.Batch{ID: "n01/3", Node: "n01", Records: []eard.JobRecord{rec("j1", "0", "n01", 305)}}
	if got := sendAcked(t, srv, conn, b3); got != (outcome{replaced: 1}) {
		t.Errorf("update: %+v", got)
	}

	st := srv.Stats()
	if st.Batches != 4 || st.DuplicateBatches != 1 || st.RecordsAccepted != 2 ||
		st.RecordsDuplicate != 2 || st.RecordsReplaced != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestServerOverUnixSocket(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("unix sockets")
	}
	sock := filepath.Join(t.TempDir(), "eardbd.sock")
	srv, addr := startServer(t, "unix", sock, Config{})
	conn, err := net.Dial("unix", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := sendAcked(t, srv, conn, wire.Batch{ID: "n02/1", Node: "n02",
		Records: []eard.JobRecord{rec("j2", "0", "n02", 250)}}); got != (outcome{accepted: 1}) {
		t.Errorf("over the unix socket: %+v", got)
	}
	if srv.DB().Len() != 1 {
		t.Errorf("db holds %d records", srv.DB().Len())
	}
}

func TestServerRejectsBadBatches(t *testing.T) {
	srv, addr := startServer(t, "tcp", "127.0.0.1:0", Config{})
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	conn := dial()
	defer conn.Close()

	// Oversized batch: rejected, connection stays usable.
	big := wire.Batch{ID: "n01/1", Node: "n01"}
	for i := 0; i <= maxBatchRecords; i++ {
		big.Records = append(big.Records, rec("j", fmt.Sprint(i), "a", 1))
	}
	resp := exchange(t, conn, mustBatch(t, big))
	if ef, err := resp.AsError(); err != nil || ef.Message == "" {
		t.Fatalf("oversized batch response = %s %v", resp.Type, err)
	}

	// Missing batch ID.
	resp = exchange(t, conn, mustBatch(t, wire.Batch{Node: "n01",
		Records: []eard.JobRecord{rec("j", "0", "a", 1)}}))
	if _, err := resp.AsError(); err != nil {
		t.Fatalf("id-less batch response = %s", resp.Type)
	}

	// Invalid record: the whole batch is refused atomically.
	bad := wire.Batch{ID: "n01/2", Node: "n01", Records: []eard.JobRecord{
		rec("j", "0", "a", 1), {JobID: "", Node: "x", TimeSec: 1},
	}}
	resp = exchange(t, conn, mustBatch(t, bad))
	if _, err := resp.AsError(); err != nil {
		t.Fatalf("invalid-record response = %s", resp.Type)
	}
	if srv.DB().Len() != 0 {
		t.Errorf("rejected batches leaked %d records into the db", srv.DB().Len())
	}
	if st := srv.Stats(); st.BatchesRejected != 3 {
		t.Errorf("stats = %+v, want 3 rejected", st)
	}

	// The connection survived all three rejections.
	if got := sendAcked(t, srv, conn, wire.Batch{ID: "n01/3", Node: "n01",
		Records: []eard.JobRecord{rec("j", "0", "a", 1)}}); got != (outcome{accepted: 1}) {
		t.Errorf("post-rejection: %+v", got)
	}
}

// The binary codec carries raw float bits, so a NaN can reach the
// server where JSON never let one through. One such record refuses the
// whole batch with an error frame; the connection stays usable.
func TestServerRejectsNonFiniteRecord(t *testing.T) {
	srv, addr := startServer(t, "tcp", "127.0.0.1:0", Config{})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, v := range []float64{math.NaN(), math.Inf(1)} {
		poison := rec("j", "0", "b", 100)
		poison.AvgPower = v
		resp := exchange(t, conn, mustBatch(t, wire.Batch{ID: BatchID("n01", uint64(i+1)), Node: "n01",
			Records: []eard.JobRecord{rec("j", "0", "a", 100), poison}}))
		if ef, err := resp.AsError(); err != nil || !strings.Contains(ef.Message, "non-finite") {
			t.Fatalf("batch carrying %v: response %s %+v (err %v), want an error frame naming the cause", v, resp.Type, ef, err)
		}
	}
	if srv.DB().Len() != 0 || len(srv.NodePowers()) != 0 {
		t.Errorf("a rejected batch left %d records and %d node powers behind", srv.DB().Len(), len(srv.NodePowers()))
	}
	if st := srv.Stats(); st.BatchesRejected != 2 || st.ProtocolErrors != 0 {
		t.Errorf("stats = %+v, want 2 rejected batches and no protocol error", st)
	}
	if got := sendAcked(t, srv, conn, wire.Batch{ID: "n01/3", Node: "n01", Records: []eard.JobRecord{rec("j", "0", "a", 100)}}); got != (outcome{accepted: 1}) {
		t.Errorf("post-rejection: %+v", got)
	}
}

// A peer still speaking protocol version 1 (JSON payloads) is told so:
// the server answers its first frame with an error naming the skew,
// then hangs up.
func TestServerSurfacesVersionSkew(t *testing.T) {
	srv, addr := startServer(t, "tcp", "127.0.0.1:0", Config{})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := `{"id":"n01/1","node":"n01","records":[]}`
	v1 := binary.BigEndian.AppendUint32(nil, wire.Magic)
	v1 = append(v1, 1, byte(wire.TypeBatch), 0, 0)
	v1 = binary.BigEndian.AppendUint32(v1, uint32(len(payload)))
	if _, err := conn.Write(append(v1, payload...)); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("expected an error frame before close: %v", err)
	}
	if ef, err := resp.AsError(); err != nil || !strings.Contains(ef.Message, wire.ErrVersion.Error()) {
		t.Errorf("response = %s %+v (err %v), want an error frame carrying %q", resp.Type, ef, err, wire.ErrVersion)
	}
	if _, err := wire.ReadFrame(conn, 0); err == nil {
		t.Error("connection still open after a version-1 frame")
	}
	if st := srv.Stats(); st.ProtocolErrors != 1 || st.Batches != 0 {
		t.Errorf("stats = %+v, want one protocol error and no batch", st)
	}
}

func TestBatchIDFormat(t *testing.T) {
	long := strings.Repeat("n", 100)
	for _, c := range []struct {
		node string
		seq  uint64
		want string
	}{
		{"n01", 1, "n01/1"},
		{"node00042", 18446744073709551615, "node00042/18446744073709551615"},
		{"", 0, "/0"},
		{long, 7, long + "/7"},
	} {
		if got := BatchID(c.node, c.seq); got != c.want {
			t.Errorf("BatchID(%q, %d) = %q, want %q", c.node, c.seq, got, c.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = BatchID("node00042", 123456) }); allocs > 1 {
		t.Errorf("BatchID allocates %v times, want the ID string only", allocs)
	}
}

func TestServerClosesOnGarbage(t *testing.T) {
	srv, addr := startServer(t, "tcp", "127.0.0.1:0", Config{})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n this is not a frame")); err != nil {
		t.Fatal(err)
	}
	// The server answers with an error frame, then closes.
	resp, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("expected an error frame before close: %v", err)
	}
	if resp.Type != wire.TypeError {
		t.Errorf("response = %s, want error", resp.Type)
	}
	if _, err := wire.ReadFrame(conn, 0); err == nil {
		t.Error("connection still open after garbage")
	}
	if st := srv.Stats(); st.ProtocolErrors == 0 {
		t.Errorf("stats = %+v, want a protocol error", st)
	}
}

func TestServerQueries(t *testing.T) {
	srv, addr := startServer(t, "tcp", "127.0.0.1:0", Config{})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	batch := wire.Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		rec("j1", "0", "n01", 300), rec("j1", "0", "n02", 310), rec("j2", "0", "n03", 250),
	}}
	sendAcked(t, srv, conn, batch)

	query := func(q wire.Query) wire.Result {
		t.Helper()
		qf, err := wire.EncodeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exchange(t, conn, qf).AsResult()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	var agg Aggregate
	res := query(wire.Query{Kind: wire.QueryAggregate})
	if err := res.Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if agg.Nodes != 3 || agg.TotalPowerW != 860 || agg.Records != 3 {
		t.Errorf("aggregate = %+v", agg)
	}
	wantEnergy := 300*100.0 + 310*100 + 250*100
	if agg.TotalEnergyJ != wantEnergy {
		t.Errorf("aggregate energy = %g, want %g", agg.TotalEnergyJ, wantEnergy)
	}

	var sums []eard.JobSummary
	res = query(wire.Query{Kind: wire.QueryJobs})
	if err := res.Decode(&sums); err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].JobID != "j1" || sums[0].Nodes != 2 || sums[1].JobID != "j2" {
		t.Errorf("jobs = %+v", sums)
	}

	var sum eard.JobSummary
	res = query(wire.Query{Kind: wire.QuerySummary, Job: "j1", Step: "0"})
	if err := res.Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Nodes != 2 || sum.EnergyJ != 61000 {
		t.Errorf("summary = %+v", sum)
	}

	var st Stats
	res = query(wire.Query{Kind: wire.QueryStats})
	if err := res.Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Batches != 1 || st.RecordsAccepted != 3 || st.Queries < 3 {
		t.Errorf("stats = %+v", st)
	}

	// Unknown kinds and missing jobs answer with an error frame but
	// keep the connection.
	for _, q := range []wire.Query{{Kind: "bogus"}, {Kind: wire.QuerySummary, Job: "nope"}} {
		qf, err := wire.EncodeQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if resp := exchange(t, conn, qf); resp.Type != wire.TypeError {
			t.Errorf("query %+v response = %s, want error", q, resp.Type)
		}
	}
	sendAcked(t, srv, conn, wire.Batch{ID: "n01/2", Node: "n01",
		Records: []eard.JobRecord{rec("j3", "0", "n01", 200)}})
	if v, _ := srv.View(nil); v.Aggregate().Nodes != 3 {
		t.Errorf("aggregate after update = %+v", v.Aggregate())
	}
}

// TestReplyBufferKeptOnlyWhileSmall drives serveQuery as ServeConn
// does, over the connection's framing state: a small reply is built in
// the connection's image and kept, a dump past wire.MaxKept is written
// from a buffer of its own that is not kept, and the next small reply
// is built in the very bytes the first one was.
func TestReplyBufferKeptOnlyWhileSmall(t *testing.T) {
	db := eard.NewDB()
	for i := 0; i < 800; i++ {
		if err := db.Insert(rec("j1", "0", fmt.Sprintf("node%05d", i), 300)); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(db, Config{})
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	var c wire.Conn
	c.Reset(server)
	serve := func(kind string) wire.Frame {
		t.Helper()
		qf, err := wire.EncodeQuery(wire.Query{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan wire.Frame, 1)
		go func() {
			f, _ := wire.ReadFrame(client, 0)
			got <- f
		}()
		if !srv.serveQuery(&c, qf) {
			t.Fatalf("%s: serveQuery gave the connection up", kind)
		}
		f := <-got
		if f.Type != wire.TypeResult {
			t.Fatalf("%s: answered with a %s frame", kind, f.Type)
		}
		return f
	}
	// holds reports whether the connection's image, as kept, holds f's
	// payload behind its room.
	holds := func(f wire.Frame) bool {
		image := c.Body()
		return cap(image) >= wire.HeaderRoom+len(f.Payload) &&
			bytes.Equal(image[wire.HeaderRoom:wire.HeaderRoom+len(f.Payload)], f.Payload)
	}

	small := serve(wire.QueryNodePowers)
	kept := c.Body()
	if cap(kept) > wire.MaxKept || !holds(small) {
		t.Fatalf("after a %d-byte reply the connection keeps a buffer of %d bytes that holds it: %v", len(small.Payload), cap(kept), holds(small))
	}

	dump := serve(wire.QueryRecords)
	if len(dump.Payload) <= wire.MaxKept {
		t.Fatalf("the dump is only %d bytes: it tests nothing", len(dump.Payload))
	}
	if image := c.Body(); cap(image) > wire.MaxKept || &image[0] != &kept[0] {
		t.Fatalf("a %d-byte dump left the connection holding a buffer of %d bytes", len(dump.Payload), cap(image))
	}

	next := serve(wire.QueryGeneration)
	if &c.Body()[0] != &kept[0] || !holds(next) {
		t.Fatalf("after the dump, a %d-byte reply was not built in the kept buffer", len(next.Payload))
	}
}

func TestServerFrameLimitIsEnforced(t *testing.T) {
	_, addr := startServer(t, "tcp", "127.0.0.1:0", Config{MaxFramePayload: 256})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var recs []eard.JobRecord
	for i := 0; i < 50; i++ {
		recs = append(recs, rec("j", "0", fmt.Sprintf("n%02d", i), 100))
	}
	// Write with a generous local limit; the server's tighter bound
	// must refuse the frame without reading the payload.
	if err := wire.WriteFrame(conn, mustBatch(t, wire.Batch{ID: "x/1", Node: "x", Records: recs}), 1<<20); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	ef, err := resp.AsError()
	if err != nil {
		t.Fatalf("response = %s", resp.Type)
	}
	if ef.Message == "" {
		t.Error("empty error message")
	}
}

// TestRedeliveryWaitsForClaimedBatch: a batch redelivered while its
// first delivery's handler is still storing it — the client's
// connection died under the delivery and it retried on a new one — is
// not let through beside it. It waits for the first delivery to land
// and is acked as a duplicate batch: stored once, by the handler that
// claimed it, and no ack precedes that store.
//
// The server's clock is the one thing a handler calls out to between
// claiming a batch and storing it, so the test stalls the first handler
// there: at the first reading that finds the ID claimed and not stored.
// The readings a handler takes before its window check are counted on
// the way, which tells when the second handler has got that far.
func TestRedeliveryWaitsForClaimedBatch(t *testing.T) {
	const id = "n01/1"
	var srv *Server
	var readings, beforeCheck, second atomic.Int32
	claimed, atCheck, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	srv = NewServer(eard.NewDB(), Config{Now: func() float64 {
		n := readings.Add(1)
		if beforeCheck.Load() == 0 {
			srv.mu.Lock()
			stored, held := srv.seen[id]
			srv.mu.Unlock()
			if held && !stored {
				beforeCheck.Store(n - 1)
				close(claimed)
				<-release
			}
		} else if second.Add(1) == beforeCheck.Load() {
			close(atCheck)
		}
		return 0
	}})
	defer srv.Close()
	batch := mustBatch(t, wire.Batch{ID: id, Node: "n01", Records: []eard.JobRecord{rec("j1", "0", "n01", 300)}})
	deliver := func() <-chan bool {
		conn, err := srv.Dial()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		acked := make(chan bool, 1)
		go func() {
			if err := wire.WriteFrame(conn, batch, 0); err != nil {
				t.Error(err)
			}
			resp, err := wire.ReadFrame(conn, 0)
			if err != nil {
				t.Error(err)
			}
			acked <- resp.AcksBatch(id)
		}()
		return acked
	}

	first := deliver()
	<-claimed
	again := deliver()
	<-atCheck
	select {
	case <-again:
		t.Fatal("the redelivery was answered with the first delivery not yet stored")
	default:
	}
	if n := srv.DB().Len(); n != 0 {
		t.Fatalf("%d records stored while the claiming handler is stalled before its store", n)
	}
	close(release)
	if !<-first || !<-again {
		t.Error("a delivery was not acked")
	}
	if st := srv.Stats(); st.Batches != 2 || st.DuplicateBatches != 1 || st.RecordsAccepted != 1 || st.RecordsDuplicate != 0 || srv.DB().Len() != 1 {
		t.Errorf("stats %+v with %d records stored: the batch was not stored once, by one handler", st, srv.DB().Len())
	}
}

func TestSeenWindowEviction(t *testing.T) {
	srv, addr := startServer(t, "tcp", "127.0.0.1:0", Config{})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 1; i <= 3; i++ {
		b := wire.Batch{ID: fmt.Sprintf("n01/%d", i), Node: "n01",
			Records: []eard.JobRecord{rec("j", "0", fmt.Sprintf("n%02d", i), 100)}}
		sendAcked(t, srv, conn, b)
		if i == 1 {
			// Fill the window behind n01/1 with IDs no client sends, so
			// n01/3 pushes it out.
			srv.mu.Lock()
			for k := 2; k < maxSeenBatches; k++ {
				id := fmt.Sprintf("filler/%d", k)
				srv.seen[id] = true
				srv.seenQueue = append(srv.seenQueue, id)
			}
			srv.mu.Unlock()
		}
	}
	// Batch n01/1 was evicted from the ID window; its replay is still
	// absorbed record-by-record, and — storing nothing, moving no node's
	// power — leaves the generation where it was.
	gen, _ := srv.Generation(nil)
	if got := sendAcked(t, srv, conn, wire.Batch{ID: "n01/1", Node: "n01",
		Records: []eard.JobRecord{rec("j", "0", "n01", 100)}}); got != (outcome{duplicate: 1}) {
		t.Errorf("evicted replay: %+v", got)
	}
	if srv.DB().Len() != 3 {
		t.Errorf("db = %d records, want 3", srv.DB().Len())
	}
	if after, _ := srv.Generation(nil); after != gen {
		t.Errorf("generation moved %d -> %d on a replay that changed nothing", gen, after)
	}
}

// TestGenerationCoversNodePowers: the generation moves with everything
// View hands out, the seeded power view included, and only when a
// value really changes.
func TestGenerationCoversNodePowers(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{})
	seed := []wire.NodePower{{Node: "n01", PowerW: 250}, {Node: "n02", PowerW: 260}}
	restore := func(nps []wire.NodePower) {
		t.Helper()
		if err := srv.Restore(Saved{Powers: nps}); err != nil {
			t.Fatal(err)
		}
	}
	restore(seed)
	if gen, _ := srv.Generation(nil); gen.Gen != 1 {
		t.Fatalf("generation %d after seeding two nodes, want 1", gen)
	}
	v, _ := srv.View(nil)
	if !reflect.DeepEqual(v.Powers, seed) {
		t.Fatalf("powers = %v, want the seed", v.Powers)
	}
	restore(seed)
	if gen, _ := srv.Generation(nil); gen.Gen != 1 {
		t.Errorf("generation %d after re-seeding the same values, want 1", gen)
	}
	restore([]wire.NodePower{{Node: "n02", PowerW: 270}})
	again, _ := srv.View(nil)
	if gen, _ := srv.Generation(nil); gen.Gen != 2 || again.Powers[1].PowerW != 270 {
		t.Errorf("generation %d, powers %v after one value moved, want 2 and n02 at 270 W", gen, again.Powers)
	}
	if v.Powers[1].PowerW != 260 {
		t.Error("a power list already handed out was written to")
	}
	if c := srv.HealthCheck(1)(); !c.OK {
		t.Errorf("seeding alone reads as a stale store: %+v", c)
	}
}

// TestRestoreContinuesGeneration: a restored server answers the
// generation its state was saved at and counts on from there, so it
// never answers one it has answered with other contents; a state file
// written before the generation was kept restores as it did.
func TestRestoreContinuesGeneration(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{})
	conn, err := srv.Dial()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		b := wire.Batch{ID: fmt.Sprintf("n01/%d", i), Node: "n01", Records: []eard.JobRecord{rec(fmt.Sprint(i), "0", "n01", 100)}}
		sendAcked(t, srv, conn, b)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(srv.Saved())
	if err != nil {
		t.Fatal(err)
	}
	var sv Saved
	if err := json.Unmarshal(blob, &sv); err != nil || sv.Gen != 3 {
		t.Fatalf("saved %s (%v), want generation 3", blob, err)
	}
	back := NewServer(srv.DB(), Config{})
	if err := back.Restore(sv); err != nil {
		t.Fatal(err)
	}
	if gen, _ := back.Generation(nil); gen.Gen != 3 {
		t.Errorf("restored at generation %d, want the saved 3", gen)
	}

	var old Saved
	if err := json.Unmarshal([]byte(`{"node_powers":[{"node":"n01","power_w":100}],"acct":[]}`), &old); err != nil {
		t.Fatal(err)
	}
	fresh := NewServer(eard.NewDB(), Config{})
	if err := fresh.Restore(old); err != nil {
		t.Fatal(err)
	}
	if gen, _ := fresh.Generation(nil); gen.Gen != 1 {
		t.Errorf("a state saved without a generation restores at %d, want 1", gen)
	}
	if blob, _ := json.Marshal(NewServer(eard.NewDB(), Config{}).Saved()); strings.Contains(string(blob), "generation") {
		t.Errorf("an empty server saves %s: a zero generation is omitted, as files written before it were", blob)
	}
}

// TestRestoredServerAnswersChanges: a server restored from another's
// saved state at generation G, over the same database, holds nodes no
// batch has stamped — records loaded with the database, restored powers
// and accounting. It answers changes from zero with its whole view, from
// G with nothing until a batch lands and then with exactly that batch's
// nodes, whole, and refuses from G-1: the restore replaced its
// accounting there.
func TestRestoredServerAnswersChanges(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{})
	conn, err := srv.Dial()
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range []string{"n01", "n02", "n03"} {
		sendAcked(t, srv, conn, wire.Batch{ID: node + "/1", Node: node,
			Records: []eard.JobRecord{rec("j1", "0", node, 100+float64(i))},
			Acct: []accounting.Record{{
				V: accounting.CodecVersion, JobID: "j1", StepID: "0", User: "alice", Node: node,
				StartSec: 0, EndSec: 60, NodeJ: 1000 + float64(i),
			}}})
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	sv := srv.Saved()
	back := NewServer(srv.DB(), Config{})
	t.Cleanup(func() { _ = back.Close() })
	if err := back.Restore(sv); err != nil {
		t.Fatal(err)
	}
	g := int(sv.Gen)
	changes := func(since int) (wire.Changes, error) {
		t.Helper()
		var ch wire.Changes
		payload, err := Answer(nil, back, nil, wire.Query{Kind: wire.QueryChanges, Limit: since})
		if err == nil {
			err = wire.Result{Kind: wire.QueryChanges, Data: payload[1:]}.Decode(&ch)
		}
		return ch, err
	}
	whole, err := changes(0)
	if err != nil {
		t.Fatalf("changes from 0 after a restore: %v", err)
	}
	if !reflect.DeepEqual(whole.Records, srv.DB().Records()) || !reflect.DeepEqual(whole.Acct, sv.Acct) || !reflect.DeepEqual(whole.Powers, sv.Powers) {
		t.Errorf("changes from 0 after a restore:\n%+v\nwant the whole view: records %+v, acct %+v, powers %+v",
			whole, srv.DB().Records(), sv.Acct, sv.Powers)
	}
	if ch, err := changes(g); err != nil || len(ch.Records)+len(ch.Acct)+len(ch.Powers) != 0 {
		t.Errorf("changes from the restored generation %d with no batch since: %+v, %v; want none", g, ch, err)
	}
	conn, err = back.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sendAcked(t, back, conn, wire.Batch{ID: "n02/2", Node: "n02", Records: []eard.JobRecord{rec("j2", "0", "n02", 180)}})
	ch, err := changes(g)
	want := []eard.JobRecord{rec("j1", "0", "n02", 101), rec("j2", "0", "n02", 180)}
	if err != nil || !reflect.DeepEqual(ch.Records, want) || len(ch.Acct) != 1 || ch.Acct[0].Node != "n02" ||
		!reflect.DeepEqual(ch.Powers, []wire.NodePower{{Node: "n02", PowerW: 180}}) {
		t.Errorf("changes from %d after n02's batch: %+v, %v; want n02 whole and no other node", g, ch, err)
	}
	if _, err := changes(g - 1); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("dropped at %d", g)) {
		t.Errorf("changes from %d, before the restore: err = %v, want a refusal", g-1, err)
	}
}

func TestServeAfterCloseRefuses(t *testing.T) {
	srv := NewServer(eard.NewDB(), Config{})
	// Close owns an in-process connection as it owns an accepted one:
	// it severs it and returns once its handler has.
	held, err := srv.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if n := srv.Conns(); n != 1 {
		t.Fatalf("serving %d connections after one Dial, want 1", n)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := held.Read(make([]byte, 1)); err == nil {
		t.Error("a dialled connection outlived Close")
	}
	if _, err := srv.Dial(); err == nil {
		t.Error("Dial on a closed server succeeded")
	}
	if n := srv.Conns(); n != 0 {
		t.Errorf("serving %d connections after Close, want 0", n)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l); err == nil {
		t.Error("Serve on a closed server succeeded")
	}
}
