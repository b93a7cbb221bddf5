package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// startDaemon runs the daemon on an ephemeral TCP port with extra
// flags and returns every address it reported ready — the wire
// listeners in flag order, then the telemetry endpoint when -telemetry
// is on — plus a shutdown function that waits for a clean exit and
// returns the accumulated output. A later -listen in extra overrides
// the ephemeral one.
func startDaemon(t *testing.T, extra ...string) ([]string, func() string) {
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
		return addrs, stop
	case err := <-done:
		t.Fatalf("daemon died on startup: %v (output: %s)", err, out.String())
		return nil, nil
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

// ask puts q to the daemon at addr on a fresh connection and decodes
// the answer into v.
func ask(t *testing.T, addr string, q wire.Query, v any) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := eardbd.Query(conn, q, 0)
	if err == nil {
		err = res.Decode(v)
	}
	if err != nil {
		t.Fatalf("%s from %s: %v", q.Kind, addr, err)
	}
}

// TestDaemonLifecycleWithPersistence: what the daemon acknowledged, it
// still serves after a restart — the records, every node's last
// reported power and the job accounting records, byte for byte — from
// the one file it wrote.
func TestDaemonLifecycleWithPersistence(t *testing.T) {
	dir := t.TempDir()
	dbFile := filepath.Join(dir, "shard.db")
	addrs, stop := startDaemon(t, "-db", dbFile)
	addr := addrs[0]

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
	if want := "saved 2 records, 2 node powers and 2 accounting records to " + dbFile; !strings.Contains(out, want) {
		t.Errorf("shutdown output missing %q:\n%s", want, out)
	}
	// One file: no F.state beside it, and no temporary file left.
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != "shard.db" {
		t.Errorf("the daemon left %v (%v), want shard.db alone", entries, err)
	}

	// A restarted daemon loads the file and serves what it did before.
	addrs2, stop2 := startDaemon(t, "-db", dbFile)
	after := read(addrs2[0])
	for i, kind := range []string{"aggregate", "node_powers", "acct_jobs"} {
		if !bytes.Equal(after[i], before[i]) {
			t.Errorf("%s after the restart differs:\n before %q\n after  %q", kind, before[i], after[i])
		}
	}
	out2 := stop2()
	if want := "loaded 2 records, 2 node powers and 2 accounting records from " + dbFile; !strings.Contains(out2, want) {
		t.Errorf("restart output missing %q:\n%s", want, out2)
	}
}

func TestDaemonUnixSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "eardbd.sock")
	addrs, stop := startDaemon(t, "-unix", sock)
	if len(addrs) != 2 || addrs[1] != sock {
		t.Fatalf("ready addrs = %v, want TCP then %s", addrs, sock)
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
	stop()
}

// TestFederationRootDaemon runs two ingest daemons and a -fed root
// over them: the root must serve the merged cluster snapshot and
// refuse record batches.
func TestFederationRootDaemon(t *testing.T) {
	shard1, stop1 := startDaemon(t)
	defer stop1()
	shard2, stop2 := startDaemon(t)
	defer stop2()
	addr1, addr2 := shard1[0], shard2[0]
	sendBatch(t, addr1, wire.Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		{JobID: "j1", StepID: "0", Node: "n01", App: "X", TimeSec: 10, EnergyJ: 3000, AvgPower: 300},
	}})
	sendBatch(t, addr2, wire.Batch{ID: "n02/1", Node: "n02", Records: []eard.JobRecord{
		{JobID: "j1", StepID: "0", Node: "n02", App: "X", TimeSec: 10, EnergyJ: 3100, AvgPower: 310},
	}})

	root, stopRoot := startDaemon(t, "-fed", addr1+","+addr2)
	defer stopRoot()
	rootAddr := root[0]
	var agg eardbd.Aggregate
	ask(t, rootAddr, wire.Query{Kind: wire.QueryAggregate}, &agg)
	if agg.Nodes != 2 || agg.Records != 2 || agg.TotalPowerW != 610 {
		t.Errorf("root aggregate = %+v, want 2 nodes, 2 records, 610 W", agg)
	}

	// The root is a read path: batches must be refused, not merged.
	conn, err := net.Dial("tcp", rootAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f, err := wire.EncodeBatch(wire.Batch{ID: "n03/1", Node: "n03", Records: []eard.JobRecord{
		{JobID: "j2", StepID: "0", Node: "n03", App: "X", TimeSec: 10, EnergyJ: 1000, AvgPower: 100},
	}})
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
	if resp.Type != wire.TypeError {
		t.Errorf("batch to root answered %s, want error", resp.Type)
	}
}

// refusedAtStart runs a daemon on an ephemeral port with args and
// checks that it refuses to start with an error containing want.
func refusedAtStart(t *testing.T, want string, args ...string) {
	t.Helper()
	var out strings.Builder
	ready, quit, done := make(chan []string, 1), make(chan struct{}), make(chan error, 1)
	go func() {
		done <- run(append([]string{"-listen", "127.0.0.1:0"}, args...), &out, ready, quit)
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: run = %v, want an error containing %q", args, err, want)
		}
	case <-ready:
		close(quit)
		<-done
		t.Errorf("%v started a root", args)
	}
}

// TestNegativeCascadeBudgetRefused: a negative -cascade budget reaches
// the cascade's validation instead of leaving a plain root serving.
func TestNegativeCascadeBudgetRefused(t *testing.T) {
	refusedAtStart(t, "budget must be positive", "-fed", "a:1", "-cascade", "-5")
}

// TestUnusableCascadeRefused: a budget or a control period the cascade
// cannot run on is refused at start. NaN passed every x <= 0 check, and
// a period that rounds to no ticker period panicked at the first tick.
func TestUnusableCascadeRefused(t *testing.T) {
	refusedAtStart(t, "budget must be positive and finite", "-fed", "a:1", "-cascade", "NaN")
	refusedAtStart(t, "budget must be positive and finite", "-fed", "a:1", "-cascade", "+Inf")
	refusedAtStart(t, "interval must be positive and finite", "-fed", "a:1", "-cascade", "1000", "-cascade-interval", "NaN")
	refusedAtStart(t, "interval must be positive and finite", "-fed", "a:1", "-cascade", "1000", "-cascade-interval", "+Inf")
	refusedAtStart(t, "has no ticker period", "-fed", "a:1", "-cascade", "1000", "-cascade-interval", "1e-12")
}

// TestNumericFlagsRefused: a number the daemon would ignore or misread
// is refused at start, naming its flag. A NaN -stale-after never
// degraded readiness (age > NaN is false), a negative -acct-retain meant
// unlimited and a negative -max-frame meant 1 MiB, and -stale-after was
// dropped without -telemetry or on a federation root.
func TestNumericFlagsRefused(t *testing.T) {
	tel := []string{"-telemetry", "127.0.0.1:0"}
	for _, v := range []string{"NaN", "+Inf", "-Inf", "-1"} {
		refusedAtStart(t, "-stale-after", append(tel, "-stale-after", v)...)
	}
	refusedAtStart(t, "-stale-after", "-stale-after", "5")
	refusedAtStart(t, "-stale-after", append(tel, "-stale-after", "5", "-fed", "a:1")...)
	refusedAtStart(t, "-acct-retain", "-acct-retain", "-1")
	refusedAtStart(t, "-max-frame", "-max-frame", "-1")
	refusedAtStart(t, "-max-frame", "-fed", "a:1", "-max-frame", "-1")
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
	bad := filepath.Join(t.TempDir(), "corrupt.db")
	if err := os.WriteFile(bad, []byte("EARW"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-db", bad}, &out, nil, nil); err == nil {
		t.Error("corrupt db file accepted")
	}
	// A record file and state pair in the JSON a build before the wire
	// state file wrote is refused at boot, naming the file.
	dir := t.TempDir()
	old := filepath.Join(dir, "jobs.json")
	for path, content := range map[string]string{
		old:                                   `[{"job_id":"j1","step_id":"0","node":"n01","time_sec":10,"energy_j":3000}]`,
		filepath.Join(dir, "jobs.json.state"): `{"node_powers":[{"node":"n01","power_w":300}],"acct":[]}`,
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err := run([]string{"-listen", "127.0.0.1:0", "-db", old}, &out, nil, nil)
	if !errors.Is(err, wire.ErrMagic) || !strings.Contains(err.Error(), old) {
		t.Errorf("old JSON state file: run = %v, want it refused with %v, naming %s", err, wire.ErrMagic, old)
	}
}

// TestDefaultRootReadsALargeShard: a root and a shard at the default
// frame limit, the shard holding 20,000 node reports (2,000 nodes × 10,
// earload's -nodes 2000 -records 10), whose whole view is past the
// limit: the root's aggregate counts every record, as the shard's own
// does.
func TestDefaultRootReadsALargeShard(t *testing.T) {
	shards, stopShard := startDaemon(t)
	defer stopShard()
	shard := shards[0]
	conn, err := net.Dial("tcp", shard)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var c wire.Conn
	c.Reset(conn)
	for b := 0; b < 200; b++ {
		batch := wire.Batch{ID: fmt.Sprintf("load/%d", b), Node: "load"}
		for n := 10 * b; n < 10*(b+1); n++ {
			node := fmt.Sprintf("node%05d", n)
			for r := 0; r < 10; r++ {
				batch.Records = append(batch.Records, eard.JobRecord{
					JobID: fmt.Sprintf("job%d", r), StepID: "0", Node: node, App: "BT-MZ.C", Policy: "min_energy",
					TimeSec: 100, EnergyJ: 25000 + float64(n), AvgPower: 250, AvgCPU: 2.1, AvgIMC: 2.4,
				})
			}
		}
		if err := c.WriteImage(wire.TypeBatch, trace.Context{}, wire.BatchImage(nil, batch)); err != nil {
			t.Fatal(err)
		}
		if f, err := c.Read(); err != nil || !f.AcksBatch(batch.ID) {
			t.Fatalf("batch %d not acked: %v", b, err)
		}
	}
	var want, got eardbd.Aggregate
	ask(t, shard, wire.Query{Kind: wire.QueryAggregate}, &want)
	if want.Records != 20000 || want.Nodes != 2000 {
		t.Fatalf("the shard holds %+v, want 20,000 records of 2,000 nodes", want)
	}
	root, stopRoot := startDaemon(t, "-fed", shard)
	defer stopRoot()
	ask(t, root[0], wire.Query{Kind: wire.QueryAggregate}, &got)
	if got != want {
		t.Errorf("the root's aggregate is %+v, the shard's %+v", got, want)
	}
}
