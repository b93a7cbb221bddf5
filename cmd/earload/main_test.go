package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"goear/internal/eard"
	"goear/internal/eardbd"
)

func readFile(path string) (string, error) {
	blob, err := os.ReadFile(path)
	return string(blob), err
}

func TestParseFaultSpec(t *testing.T) {
	cases := []struct {
		in      string
		shard   string
		after   int64
		wantErr bool
	}{
		{in: "shard1@500", shard: "shard1", after: 500},
		{in: "s@1", shard: "s", after: 1},
		{in: "a@b@30", shard: "a@b", after: 30},
		{in: "shard1", wantErr: true},
		{in: "@500", wantErr: true},
		{in: "shard1@", wantErr: true},
		{in: "shard1@0", wantErr: true},
		{in: "shard1@-3", wantErr: true},
		{in: "shard1@x", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, tc := range cases {
		got, err := parseFaultSpec(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseFaultSpec(%q) accepted", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFaultSpec(%q): %v", tc.in, err)
			continue
		}
		if got.shard != tc.shard || got.after != tc.after {
			t.Errorf("parseFaultSpec(%q) = %+v", tc.in, got)
		}
	}
}

func TestEarloadFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "0"},
		{"-nodes", "10", "-restart", "shard1@5"},
		{"-nodes", "10", "-kill", "bogus"},
		{"-nodes", "10", "-kill", "shard0@5", "-restart", "shard0@3"},
		{"-nodes", "10", "-addrs", "127.0.0.1:1", "-kill", "shard0@5"},
		{"-sim", "BT-MZ.C"}, // the campaign mode moved to earsim -nodes -powercap
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestEarloadRefusesUnhonouredCounts: a count the generator would run
// as its default (-records, -batch, -workers at 0) or as "none" (a
// negative -acct or -queries) is refused, naming the flag, before any
// load runs.
func TestEarloadRefusesUnhonouredCounts(t *testing.T) {
	for _, c := range []struct {
		flag, val string
	}{
		{"-records", "0"},
		{"-batch", "0"},
		{"-workers", "0"},
		{"-acct", "-3"},
		{"-queries", "-2"},
	} {
		var out strings.Builder
		err := run([]string{"-nodes", "4", c.flag, c.val}, &out)
		if err == nil || !strings.Contains(err.Error(), c.flag+" ") {
			t.Errorf("run(%s %s) = %v, want an error naming %s", c.flag, c.val, err, c.flag)
		}
		if out.Len() != 0 {
			t.Errorf("run(%s %s) wrote %q before refusing", c.flag, c.val, out.String())
		}
	}
}

// snapshotOf runs a burst with the given shard count and returns the
// root snapshot text.
func snapshotOf(t *testing.T, nodes, shards, records int, extra ...string) string {
	t.Helper()
	path := t.TempDir() + "/snap.json"
	args := append([]string{
		"-nodes", fmt.Sprint(nodes), "-shards", fmt.Sprint(shards),
		"-records", fmt.Sprint(records), "-snapshot", path,
	}, extra...)
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, out.String())
	}
	blob, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestEarloadSnapshotIdenticalAcrossShardCounts(t *testing.T) {
	ref := snapshotOf(t, 60, 1, 10)
	for _, shards := range []int{2, 4} {
		if got := snapshotOf(t, 60, shards, 10); got != ref {
			t.Fatalf("shards=%d snapshot differs from single-shard run", shards)
		}
	}
}

// TestEarloadExternalShardsHangUp drives -addrs mode against two
// listening daemons and reads the same snapshot an in-process fleet of
// two gives; once the run returns, the daemons serve no connection of
// its — the roots behind the query hammer and the snapshot hang up the
// connections they parked.
func TestEarloadExternalShardsHangUp(t *testing.T) {
	var addrs []string
	var shards []*eardbd.Server
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := eardbd.NewServer(eard.NewDB(), eardbd.Config{})
		go func() { _ = srv.Serve(l) }() // returns nil on Close
		defer srv.Close()
		addrs, shards = append(addrs, l.Addr().String()), append(shards, srv)
	}
	snap := filepath.Join(t.TempDir(), "snap.json")
	var out strings.Builder
	err := run([]string{"-addrs", strings.Join(addrs, ","), "-nodes", "40", "-acct", "1", "-queries", "2", "-snapshot", snap}, &out)
	if err != nil {
		t.Fatalf("%v\noutput: %s", err, out.String())
	}
	got, err := readFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, `"nodes": 40`) {
		t.Errorf("snapshot does not cover the 40 nodes:\n%.300s", got)
	}
	// A closed client end takes the handler a scheduling round to notice.
	deadline := time.Now().Add(10 * time.Second)
	for _, srv := range shards {
		for srv.Conns() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("a daemon still serves %d connections after earload returned", srv.Conns())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestEarloadScale is the acceptance burst: at least 10k nodes over
// at least 4 shards, byte-identical to the single-shard run.
func TestEarloadScale(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node burst skipped in -short mode")
	}
	const nodes, records = 10000, 3
	ref := snapshotOf(t, nodes, 1, records)
	got := snapshotOf(t, nodes, 4, records)
	if got != ref {
		t.Fatal("4-shard 10k-node snapshot differs from single-shard run")
	}
	if !strings.Contains(ref, `"nodes": 10000`) {
		t.Fatalf("snapshot does not cover 10000 nodes")
	}
}

func TestEarloadFaultInjection(t *testing.T) {
	clean := snapshotOf(t, 80, 3, 10)
	faulted := snapshotOf(t, 80, 3, 10, "-kill", "shard1@10", "-restart", "shard1@60")
	if faulted != clean {
		t.Fatal("faulted snapshot differs from clean run")
	}

	var out strings.Builder
	err := run([]string{
		"-nodes", "80", "-shards", "3",
		"-kill", "shard1@10", "-restart", "shard1@60", "-metrics",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"killed shard1", "restarted shard1",
		"goear_loadgen_nodes_total 80",
		"goear_loadgen_journal_backlog_batches 0",
		"goear_eardbd_client_batches_spilled_total",
		"goear_eardbd_client_batches_replayed_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestEarloadKillWithoutRestartRecovers(t *testing.T) {
	// No -restart: the shard must come back post-burst and the
	// backlog must still drain to zero.
	var out strings.Builder
	err := run([]string{
		"-nodes", "40", "-shards", "2", "-kill", "shard0@5",
	}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "backlog 0") {
		t.Fatalf("backlog not drained:\n%s", out.String())
	}
}

// TestEarloadTraceExport runs traced bursts: the RTT and span summary
// lines must print, and the canonical span export must be
// byte-identical across shard counts — the tool-level face of the
// trace determinism contract.
func TestEarloadTraceExport(t *testing.T) {
	exportOf := func(shards int) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "traces.jsonl")
		var out strings.Builder
		err := run([]string{
			"-nodes", "40", "-shards", fmt.Sprint(shards), "-records", "6",
			"-traces-out", path,
		}, &out)
		if err != nil {
			t.Fatalf("%v\n%s", err, out.String())
		}
		for _, want := range []string{"spans recorded (0 dropped)", "batch rtt:", "p99"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("shards=%d output missing %q:\n%s", shards, want, out.String())
			}
		}
		blob, err := readFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	ref := exportOf(1)
	for _, want := range []string{`"kind":"client.batch"`, `"kind":"client.send"`, `"kind":"server.batch"`, `"kind":"server.store"`} {
		if !strings.Contains(ref, want) {
			t.Errorf("trace export missing %s", want)
		}
	}
	if got := exportOf(2); got != ref {
		t.Fatal("2-shard trace export differs from single-shard run")
	}
}

func BenchmarkEarload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out strings.Builder
		if err := run([]string{
			"-nodes", "256", "-shards", "4", "-records", "5", "-workers", "16",
		}, &out); err != nil {
			b.Fatalf("%v\n%s", err, out.String())
		}
	}
}

// benchEarloadTrace is the on/off pair behind the trace overhead gate:
// identical bursts, tracing toggled.
// benchEarloadTrace bursts full 64-record batches (the production
// batch size): tracing cost is per batch, so overhead is measured
// against the real per-batch work, not a 5-record toy batch.
func benchEarloadTrace(b *testing.B, traceOn bool) {
	b.ReportAllocs()
	args := []string{"-nodes", "64", "-shards", "4", "-records", "64", "-batch", "64", "-workers", "16"}
	if traceOn {
		args = append(args, "-trace")
	}
	for i := 0; i < b.N; i++ {
		var out strings.Builder
		if err := run(args, &out); err != nil {
			b.Fatalf("%v\n%s", err, out.String())
		}
	}
}

func BenchmarkEarloadTraceOff(b *testing.B) { benchEarloadTrace(b, false) }
func BenchmarkEarloadTraceOn(b *testing.B)  { benchEarloadTrace(b, true) }
