package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/wire"
)

// startDaemon runs the daemon against an ephemeral TCP port and
// returns its address plus a shutdown function that waits for a clean
// exit and returns the accumulated output.
func startDaemon(t *testing.T, extra ...string) (string, func() string) {
	t.Helper()
	var out strings.Builder
	ready := make(chan []string, 1)
	quit := make(chan struct{})
	done := make(chan error, 1)
	args := append([]string{"-listen", "127.0.0.1:0"}, extra...)
	go func() { done <- run(args, &out, ready, quit) }()
	select {
	case addrs := <-ready:
		stop := func() string {
			close(quit)
			if err := <-done; err != nil {
				t.Errorf("daemon exit: %v", err)
			}
			return out.String()
		}
		return addrs[0], stop
	case err := <-done:
		t.Fatalf("daemon died on startup: %v (output: %s)", err, out.String())
		return "", nil
	}
}

// sendBatch sends b to the daemon at addr and requires its ack.
func sendBatch(t *testing.T, addr string, b wire.Batch) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f, err := wire.EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, f, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.AcksBatch(b.ID) {
		t.Fatalf("batch %s answered by a %s frame, not its ack", b.ID, resp.Type)
	}
}

// TestDaemonLifecycleWithPersistence: what the daemon acknowledged, it
// still serves after a restart — the records, every node's last
// reported power and the job accounting records, byte for byte.
func TestDaemonLifecycleWithPersistence(t *testing.T) {
	dbFile := filepath.Join(t.TempDir(), "jobs.json")
	addr, stop := startDaemon(t, "-db", dbFile)

	acct := make([]accounting.Record, 2)
	for i, node := range []string{"n01", "n02"} {
		var err error
		acct[i], err = accounting.NewRecord(
			accounting.Meta{JobID: "j1", StepID: "0", User: "alice", Policy: "min_energy"},
			accounting.Window{Node: node, Phase: 0, StartSec: 0, EndSec: 10},
			accounting.Energy{PkgJ: 2000 + float64(i), DramJ: 300, UncoreJ: 400, NodeJ: 3000 + 100*float64(i)},
			accounting.Rates{AvgCPUGHz: 2.1, AvgIMCGHz: 2.4})
		if err != nil {
			t.Fatal(err)
		}
	}
	sendBatch(t, addr, wire.Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		{JobID: "j1", StepID: "0", Node: "n01", App: "X", TimeSec: 10, EnergyJ: 3000, AvgPower: 300},
		{JobID: "j1", StepID: "0", Node: "n02", App: "X", TimeSec: 10, EnergyJ: 3100, AvgPower: 310},
	}, Acct: acct})
	// read puts the three queries a restart must not change to the
	// daemon and returns the result payloads.
	read := func(addr string) [][]byte {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var out [][]byte
		for _, q := range []wire.Query{
			{Kind: wire.QueryAggregate},
			{Kind: wire.QueryNodePowers},
			{Kind: wire.QueryAcctJobs, User: "alice", Limit: 10},
		} {
			res, err := eardbd.Query(conn, q, 0)
			if err != nil {
				t.Fatalf("%s: %v", q.Kind, err)
			}
			out = append(out, append([]byte(nil), res.Data...))
		}
		return out
	}
	before := read(addr)
	if !strings.Contains(string(before[0]), `"nodes":2`) || !strings.Contains(string(before[0]), `"total_power_w":610`) {
		t.Fatalf("aggregate before the restart = %s", before[0])
	}
	out := stop()
	for _, want := range []string{"saved 2 records", "saved 2 node powers and 2 accounting records"} {
		if !strings.Contains(out, want) {
			t.Errorf("shutdown output missing %q:\n%s", want, out)
		}
	}
	if left, _ := filepath.Glob(dbFile + "*.tmp"); len(left) != 0 {
		t.Errorf("temporary files left beside the database: %v", left)
	}

	// A restarted daemon loads both files and serves what it did before.
	addr2, stop2 := startDaemon(t, "-db", dbFile)
	after := read(addr2)
	for i, kind := range []string{"aggregate", "node_powers", "acct_jobs"} {
		if !bytes.Equal(after[i], before[i]) {
			t.Errorf("%s after the restart differs:\n before %q\n after  %q", kind, before[i], after[i])
		}
	}
	out2 := stop2()
	for _, want := range []string{"loaded 2 records", "restored 2 node powers and 2 accounting records"} {
		if !strings.Contains(out2, want) {
			t.Errorf("restart output missing %q:\n%s", want, out2)
		}
	}
}

func TestDaemonUnixSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "eardbd.sock")
	var out strings.Builder
	ready := make(chan []string, 1)
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- run([]string{"-unix", sock}, &out, ready, quit) }()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("daemon died: %v", err)
	}
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	f, err := wire.EncodeQuery(wire.Query{Kind: wire.QueryStats})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, f, 0); err != nil {
		t.Fatal(err)
	}
	if resp, err := wire.ReadFrame(conn, 0); err != nil || resp.Type != wire.TypeResult {
		t.Errorf("stats over unix socket: %v %v", resp.Type, err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	close(quit)
	if err := <-done; err != nil {
		t.Errorf("exit: %v", err)
	}
}

// TestFederationRootDaemon runs two ingest daemons and a -fed root
// over them: the root must serve the merged cluster snapshot and
// refuse record batches.
func TestFederationRootDaemon(t *testing.T) {
	addr1, stop1 := startDaemon(t)
	defer stop1()
	addr2, stop2 := startDaemon(t)
	defer stop2()
	sendBatch(t, addr1, wire.Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		{JobID: "j1", StepID: "0", Node: "n01", App: "X", TimeSec: 10, EnergyJ: 3000, AvgPower: 300},
	}})
	sendBatch(t, addr2, wire.Batch{ID: "n02/1", Node: "n02", Records: []eard.JobRecord{
		{JobID: "j1", StepID: "0", Node: "n02", App: "X", TimeSec: 10, EnergyJ: 3100, AvgPower: 310},
	}})

	rootAddr, stopRoot := startDaemon(t, "-fed", addr1+","+addr2)
	defer stopRoot()
	conn, err := net.Dial("tcp", rootAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := eardbd.Query(conn, wire.Query{Kind: wire.QueryAggregate}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"nodes":2`, `"records":2`, `"total_power_w":610`} {
		if !strings.Contains(string(res.Data), want) {
			t.Errorf("root aggregate missing %s: %s", want, res.Data)
		}
	}

	// The root is a read path: batches must be refused, not merged.
	conn2, err := net.Dial("tcp", rootAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	f, err := wire.EncodeBatch(wire.Batch{ID: "n03/1", Node: "n03", Records: []eard.JobRecord{
		{JobID: "j2", StepID: "0", Node: "n03", App: "X", TimeSec: 10, EnergyJ: 1000, AvgPower: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn2, f, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.TypeError {
		t.Errorf("batch to root answered %s, want error", resp.Type)
	}
}

// TestNegativeCascadeBudgetRefused: a negative -cascade budget reaches
// the cascade's validation instead of leaving a plain root serving.
func TestNegativeCascadeBudgetRefused(t *testing.T) {
	var out strings.Builder
	ready, quit, done := make(chan []string, 1), make(chan struct{}), make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-fed", "a:1", "-cascade", "-5"}, &out, ready, quit)
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "budget must be positive") {
			t.Errorf("run = %v, want the cascade's budget error", err)
		}
	case <-ready:
		close(quit)
		<-done
		t.Error("a negative cascade budget started a root without a cascade")
	}
}

func TestDaemonFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out, nil, nil); err == nil {
		t.Error("no listener accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-fed", "a:1", "-db", "x.json"}, &out, nil, nil); err == nil {
		t.Error("-fed with -db accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-fed", "a:1", "-acct-retain", "9"}, &out, nil, nil); err == nil {
		t.Error("-fed with -acct-retain accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-fed", ",,"}, &out, nil, nil); err == nil {
		t.Error("empty -fed list accepted")
	}
	if err := run([]string{"-listen", "no-such-host-xyz:99999"}, &out, nil, nil); err == nil {
		t.Error("bad listen address accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-trace"}, &out, nil, nil); err == nil {
		t.Error("-trace without -telemetry accepted")
	}
	bad := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-db", bad}, &out, nil, nil); err == nil {
		t.Error("corrupt db file accepted")
	}
	good := filepath.Join(t.TempDir(), "jobs.json")
	for path, content := range map[string]string{good: "[]", good + ".state": "not json"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-db", good}, &out, nil, nil); err == nil {
		t.Error("corrupt state file accepted")
	}
}
