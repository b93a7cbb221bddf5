package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
)

// startShard serves an empty eardbd shard on an ephemeral TCP port,
// closed when the test ends, and returns it with its address.
func startShard(t *testing.T) (*eardbd.Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := eardbd.NewServer(eard.NewDB(), eardbd.Config{})
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, l.Addr().String()
}

// writeRecords saves recs and acct to a state file, as earsim -acct
// and eardbd -db write one, and returns its path.
func writeRecords(t *testing.T, recs []eard.JobRecord, acct ...accounting.Record) string {
	t.Helper()
	db := eard.NewDB()
	for _, r := range recs {
		if err := db.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "jobs.db")
	if err := eardbd.SaveState(path, db, eardbd.Saved{Acct: acct}); err != nil {
		t.Fatal(err)
	}
	return path
}

func testRecords(n int) []eard.JobRecord {
	recs := make([]eard.JobRecord, n)
	for i := range recs {
		recs[i] = eard.JobRecord{
			JobID: "j1", StepID: "0", Node: "n01", App: "lulesh",
			TimeSec: float64(10 + i), EnergyJ: float64(3000 + 10*i), AvgPower: 300,
		}
	}
	// Distinct nodes so every record is a distinct key.
	for i := range recs {
		recs[i].Node = "n" + string(rune('a'+i))
	}
	return recs
}

func TestSendDeliversAll(t *testing.T) {
	srv, addr := startShard(t)
	recs := testRecords(5)
	path := writeRecords(t, recs)

	var out strings.Builder
	err := run([]string{"send", "-addr", addr, "-records", path, "-node", "n01", "-batch", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput: %s", err, out.String())
	}
	if got := srv.DB().Len(); got != 5 {
		t.Errorf("server holds %d records, want 5", got)
	}
	if !strings.Contains(out.String(), "5 enqueued, 5 sent in 3 batch(es)") {
		t.Errorf("output = %q", out.String())
	}
}

// TestSendShipsAccounting: a state file's job accounting records go
// out with its node reports, so a daemon's file sent onward to another
// drops nothing; a file of accounting records alone names its node.
func TestSendShipsAccounting(t *testing.T) {
	srv, addr := startShard(t)
	acct := []accounting.Record{acctRec(t, "n01", 100), acctRec(t, "n01", 200)}
	acct[1].StepID = "1"
	path := writeRecords(t, testRecords(3), acct...)

	var out strings.Builder
	if err := run([]string{"send", "-addr", addr, "-records", path, "-node", "n01"}, &out); err != nil {
		t.Fatalf("run: %v\noutput: %s", err, out.String())
	}
	if !strings.Contains(out.String(), "5 enqueued, 5 sent") {
		t.Errorf("output = %q", out.String())
	}
	if got := srv.Acct().Snapshot(); len(got) != 2 || got[0] != acct[0] || got[1] != acct[1] {
		t.Errorf("server holds accounting %+v, want %+v", got, acct)
	}

	srv2, addr2 := startShard(t)
	out.Reset()
	if err := run([]string{"send", "-addr", addr2, "-records", writeRecords(t, nil, acct...)}, &out); err != nil {
		t.Fatalf("run: %v\noutput: %s", err, out.String())
	}
	if got := srv2.Acct().Len(); got != 2 {
		t.Errorf("accounting-only file: server holds %d accounting records, want 2", got)
	}
}

// TestSendTracesOut feeds with span tracing on: the export must hold
// the client-side trace of every batch.
func TestSendTracesOut(t *testing.T) {
	_, addr := startShard(t)
	path := writeRecords(t, testRecords(4))
	tracePath := filepath.Join(t.TempDir(), "traces.jsonl")

	var out strings.Builder
	err := run([]string{"send", "-addr", addr, "-records", path, "-node", "n01", "-batch", "2", "-traces-out", tracePath}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput: %s", err, out.String())
	}
	blob, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	spans := string(blob)
	if strings.Count(spans, `"kind":"client.batch"`) != 2 ||
		strings.Count(spans, `"kind":"client.send"`) != 2 {
		t.Errorf("trace export missing batch spans:\n%s", spans)
	}
	if !strings.Contains(out.String(), "span(s) written to") {
		t.Errorf("output = %q", out.String())
	}
}

func TestSendSpillsThenReplays(t *testing.T) {
	// Reserve a port nothing listens on.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs := testRecords(3)
	path := writeRecords(t, recs)
	journal := filepath.Join(t.TempDir(), "n01.journal")

	var out strings.Builder
	err = run([]string{"send", "-addr", deadAddr, "-records", path, "-node", "n01",
		"-journal", journal, "-attempts", "1"}, &out)
	if err != nil {
		t.Fatalf("offline run should spill, not fail: %v", err)
	}
	if !strings.Contains(out.String(), "spilled to "+journal) {
		t.Errorf("offline output = %q", out.String())
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("journal not written: %v", err)
	}

	// Daemon comes back; replaying the same journal delivers exactly once
	// even though the record file is sent again too.
	srv, addr := startShard(t)
	out.Reset()
	err = run([]string{"send", "-addr", addr, "-records", path, "-node", "n01", "-journal", journal}, &out)
	if err != nil {
		t.Fatalf("replay run: %v\noutput: %s", err, out.String())
	}
	if !strings.Contains(out.String(), "journal holds 1 spilled batch(es) to replay") {
		t.Errorf("replay output = %q", out.String())
	}
	if got := srv.DB().Len(); got != 3 {
		t.Errorf("server holds %d records, want 3", got)
	}
	st := srv.Stats()
	if st.RecordsAccepted != 3 || st.RecordsReplaced != 0 {
		t.Errorf("server stats = %+v: resend after replay must dedup", st)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("journal should be removed after replay, stat err = %v", err)
	}
}

func TestSendLostWithoutJournal(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := writeRecords(t, testRecords(2))
	var out strings.Builder
	if err := run([]string{"send", "-addr", deadAddr, "-records", path, "-attempts", "1"}, &out); err == nil {
		t.Error("undeliverable without journal should error")
	}
	if !strings.Contains(out.String(), "no -journal given; they are lost") {
		t.Errorf("output = %q", out.String())
	}
}

// TestSendAddrsRoutesByRing feeds one node through a two-shard -addr
// list: every record must land on the single shard the hash ring owns
// the node on, the same owner the load generator and federation use.
func TestSendAddrsRoutesByRing(t *testing.T) {
	srv1, addr1 := startShard(t)
	srv2, addr2 := startShard(t)
	recs := testRecords(4)
	for i := range recs {
		recs[i].Node = "n01"
		recs[i].JobID = "j" + string(rune('1'+i))
	}
	path := writeRecords(t, recs)

	var out strings.Builder
	err := run([]string{"send", "-addr", addr1 + "," + addr2, "-records", path, "-node", "n01"}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput: %s", err, out.String())
	}
	if !strings.Contains(out.String(), "routes to shard") {
		t.Errorf("output missing routing line: %q", out.String())
	}
	got1, got2 := srv1.DB().Len(), srv2.DB().Len()
	if got1+got2 != 4 || (got1 != 0 && got2 != 0) {
		t.Errorf("records split %d/%d across shards, want all 4 on one", got1, got2)
	}
}

func TestSendFlagErrors(t *testing.T) {
	var out strings.Builder
	cases := [][]string{
		nil,                                // no target at all
		{"-addr", "x", "-unix", "y"},       // two targets
		{"-addr", "x", "-addrs", "y"},      // the flag -addr absorbed
		{"-addr", ",, ,"},                  // a list with no endpoints
		{"-addr", "x"},                     // no -records
		{"-addr", "x", "-records", "nope"}, // missing file
	}
	for _, args := range cases {
		if err := run(append([]string{"send"}, args...), &out); err == nil {
			t.Errorf("send %v accepted", args)
		}
	}

	empty := writeRecords(t, []eard.JobRecord{})
	if err := run([]string{"send", "-addr", "x", "-records", empty}, &out); err == nil ||
		!strings.Contains(err.Error(), "no records") {
		t.Errorf("empty record file: err = %v", err)
	}

	// A batch past the daemon's limit is refused before anything is
	// sent: the daemon would refuse the batch and the client drop it.
	five := writeRecords(t, testRecords(5))
	if err := run([]string{"send", "-addr", "x", "-records", five, "-batch", "2000"}, &out); err == nil ||
		!strings.Contains(err.Error(), "batch size 2000 is past the daemon's limit of 1024") {
		t.Errorf("-batch 2000: err = %v", err)
	}
}

// sendFramesDigest is the SHA-256 of the 459 bytes the parent commit's
// eardsend binary put on the connection for
// `-records testdata/send_records.json -node n01 -batch 2`, captured
// through a recording proxy before the command moved here.
const sendFramesDigest = "66bfed39894f0bfbe3e614beeb9f46a81094ca222344b5e33d5d87b987d6cff0"

// TestSendFramesMatchEardsend pins the move of eardsend into earctl at
// the wire: for the same five records, read from a state file now,
// earctl send writes byte for byte the frames eardsend did.
func TestSendFramesMatchEardsend(t *testing.T) {
	srv, _ := startShard(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type capture struct {
		n   int64
		sum [sha256.Size]byte
	}
	got := make(chan capture, 1)
	go func() {
		// A recording proxy: everything the client writes reaches the
		// server and the hash; acks flow back untouched.
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		near, err := srv.Dial()
		if err != nil {
			return
		}
		go func() { _, _ = io.Copy(c, near) }()
		h := sha256.New()
		n, _ := io.Copy(io.MultiWriter(near, h), c)
		near.Close()
		var cp capture
		cp.n = n
		h.Sum(cp.sum[:0])
		got <- cp
	}()

	blob, err := os.ReadFile("testdata/send_records.json")
	if err != nil {
		t.Fatal(err)
	}
	var recs []eard.JobRecord
	if err := json.Unmarshal(blob, &recs); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = run([]string{"send", "-addr", l.Addr().String(), "-records", writeRecords(t, recs),
		"-node", "n01", "-batch", "2"}, &out)
	if err != nil {
		t.Fatalf("send: %v\noutput: %s", err, out.String())
	}
	cp := <-got
	if sum := hex.EncodeToString(cp.sum[:]); cp.n != 459 || sum != sendFramesDigest {
		t.Errorf("earctl send wrote %d bytes, sha256 %s; eardsend wrote 459, %s", cp.n, sum, sendFramesDigest)
	}
	if n := srv.DB().Len(); n != 5 {
		t.Errorf("server holds %d records, want 5", n)
	}
}
