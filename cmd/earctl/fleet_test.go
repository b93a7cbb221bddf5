package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/loadgen"
	"goear/internal/telemetry/trace"
)

// startRoot serves a federation root over the shards at addrs on an
// ephemeral TCP port, as `eardbd -fed a,b` does, and returns its
// address. A non-nil buf records the root's spans.
func startRoot(t *testing.T, addrs []string, buf *trace.Buffer) string {
	t.Helper()
	fleet, err := fed.NewFleet(addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	root, err := fed.NewRoot(fed.Config{Fleet: fleet, Trace: buf})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = root.Serve(l) }()
	t.Cleanup(func() { _ = root.Close() })
	return l.Addr().String()
}

// loadShards delivers cfg's node reporters through loadgen, the library
// earload wraps, to the shards at addrs and requires the backlog to
// drain.
func loadShards(t *testing.T, addrs []string, cfg loadgen.Config) {
	t.Helper()
	fleet, err := fed.NewFleet(addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadgen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := g.Run(fleet.DialFor, loadgen.Hooks{}); err != nil || res.NodeErrors != 0 {
		t.Fatalf("load: %v, %d node reporters failed", err, res.NodeErrors)
	}
	if left, err := g.Drain(fleet.DialFor, 5); err != nil || left != 0 {
		t.Fatalf("drain: %v, backlog %d", err, left)
	}
}

// TestRootAndShardListRenderAlike: a root daemon over two shards and
// earctl's own federation over the same endpoint list print the same
// aggregate and the same page of alice's jobs, and `jobs -all` follows
// the cursors to the end of her listing: it prints what one page of
// the whole listing prints.
func TestRootAndShardListRenderAlike(t *testing.T) {
	_, a := startShard(t)
	_, b := startShard(t)
	loadShards(t, []string{a, b}, loadgen.Config{Nodes: 200, RecordsPerNode: 3, AcctPerNode: 2, Workers: 16, Seed: 1})
	root, list := startRoot(t, []string{a, b}, nil), a+","+b

	for _, args := range [][]string{
		{"dbd", "aggregate"},
		{"jobs", "-user", "alice", "-limit", "50"},
	} {
		fromRoot := capture(t, append([]string{args[0], "-addr", root}, args[1:]...))
		if fromList := capture(t, append([]string{args[0], "-addr", list}, args[1:]...)); fromRoot != fromList {
			t.Errorf("earctl %v: the root prints\n%s\nthe shard list\n%s", args, fromRoot, fromList)
		}
	}
	if out := capture(t, []string{"dbd", "-addr", root, "aggregate"}); !regexp.MustCompile(`(?m)^200 .* 600 *$`).MatchString(out) {
		t.Errorf("the aggregate does not count 600 records of 200 nodes:\n%s", out)
	}
	walked := capture(t, []string{"jobs", "-addr", root, "-user", "alice", "-all"})
	whole := capture(t, []string{"jobs", "-addr", root, "-user", "alice", "-limit", "1000"})
	if walked != whole {
		t.Errorf("jobs -all prints\n%s\none page of the whole listing\n%s", walked, whole)
	}
	// The default page is 100 records: the walk must have followed a
	// cursor, and the one page must have held the whole listing.
	if n := strings.Count(walked, " alice "); n <= 100 || n > 1000 || strings.Contains(whole, "next:") {
		t.Errorf("alice has %d records; want more than one default page and no more than one 1000-record page", n)
	}
}

// TestTraceRendersFedQuery: after one aggregate through a traced root,
// `earctl trace -kind fed` prints the fed.query span with the size of
// the answer it served, over its per-shard fed.fanout legs.
func TestTraceRendersFedQuery(t *testing.T) {
	buf := trace.NewBuffer(0)
	root := startRoot(t, []string{startDBD(t), startDBD(t)}, buf)
	mux := http.NewServeMux()
	mux.Handle("/traces", buf.Handler())
	tel := httptest.NewServer(mux)
	defer tel.Close()

	// The root ends the query's span before the answer leaves.
	capture(t, []string{"dbd", "-addr", root, "aggregate"})
	out := capture(t, []string{"trace", "-addr", strings.TrimPrefix(tel.URL, "http://"), "-kind", "fed"})
	if !regexp.MustCompile(`(?m)^  fed\.query .* bytes=[1-9]`).MatchString(out) || strings.Count(out, "fed.fanout") < 2 {
		t.Errorf("earctl trace -kind fed:\n%s\nwant a fed.query line with bytes=N over a fed.fanout leg per shard", out)
	}
}

// TestAccountingFileFlow is the README's accounting flow: `earctl acct`
// reads the state file `earsim -acct` writes (testdata pinned by
// earsim's TestAcctFileGolden), `earctl send` ships it to a shard, the
// shard stops and saves its file as `eardbd -db` does, and `earctl
// acct` prints the same table from it.
func TestAccountingFileFlow(t *testing.T) {
	node := filepath.Join("..", "earsim", "testdata", "hpcg_node.db")
	want := capture(t, []string{"acct", "-db", node})
	if !strings.Contains(want, "HPCG") {
		t.Fatalf("earctl acct on earsim's file:\n%s", want)
	}
	srv, addr := startShard(t)
	capture(t, []string{"send", "-addr", addr, "-records", node})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(t.TempDir(), "shard.db")
	if err := eardbd.SaveState(shard, srv.DB(), srv.Saved()); err != nil {
		t.Fatal(err)
	}
	if got := capture(t, []string{"acct", "-db", shard}); got != want {
		t.Errorf("the shard's file tables\n%s\nearsim's\n%s", got, want)
	}
}
