package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/loadgen"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// loadShards drives cfg's node reporters through loadgen, the library
// earload wraps, over TCP to the shards at addrs, and requires every
// batch delivered: no reporter failed and the spill backlog is 0.
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
	res, err := g.Run(fleet.DialFor, loadgen.Hooks{})
	if err != nil || res.NodeErrors != 0 {
		t.Fatalf("load: %v, %d node reporters failed", err, res.NodeErrors)
	}
	if left, err := g.Drain(fleet.DialFor, 5); err != nil || left != 0 {
		t.Fatalf("drain: %v, backlog %d", err, left)
	}
}

// askList puts q through an in-process root over the shards at addrs,
// built for the one query as `earctl dbd -addr a,b,c` builds it, and
// decodes the answer into v.
func askList(t *testing.T, addrs []string, q wire.Query, v any) {
	t.Helper()
	fleet, err := fed.NewFleet(addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	root, err := fed.NewRoot(fed.Config{Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	conn, err := root.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := eardbd.Query(conn, q, 0)
	if err == nil {
		err = res.Decode(v)
	}
	if err != nil {
		t.Fatalf("%s through %v: %v", q.Kind, addrs, err)
	}
}

// TestRootMatchesShardListAcrossARestart: three shard daemons, the
// middle one keeping a -db file, under a -fed root with telemetry, take
// 2,000 node reporters over TCP (5 records and one accounting window
// each). The root daemon's aggregate is the one an endpoint-list root
// gives (earctl dbd -addr a,b,c), before and after the middle shard
// stops, saves its one file and starts again over it on the same
// address, and alice's jobs read the same across the restart. The
// root's /metrics show how it reached its shards: one new dial each,
// reused after, one redial for the restarted shard, and three shards.
func TestRootMatchesShardListAcrossARestart(t *testing.T) {
	dir := t.TempDir()
	dbFile := filepath.Join(dir, "shard.db")
	var shards []string
	var stops []func() string
	for _, extra := range [][]string{nil, {"-db", dbFile}, nil} {
		addrs, stop := startDaemon(t, extra...)
		shards, stops = append(shards, addrs[0]), append(stops, stop)
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	root, stopRoot := startDaemon(t, "-fed", strings.Join(shards, ","), "-telemetry", "127.0.0.1:0")
	defer stopRoot()
	loadShards(t, shards, loadgen.Config{Nodes: 2000, RecordsPerNode: 5, AcctPerNode: 1, Workers: 64, Seed: 1})

	aggQ := wire.Query{Kind: wire.QueryAggregate}
	var want eardbd.Aggregate
	askList(t, shards, aggQ, &want)
	if want.Nodes != 2000 || want.Records != 10000 {
		t.Fatalf("the fleet holds %+v, want 10,000 records of 2,000 nodes", want)
	}
	rootReads := func(when string) {
		t.Helper()
		var got eardbd.Aggregate
		ask(t, root[0], aggQ, &got)
		if got != want {
			t.Errorf("%s: the root daemon's aggregate is %+v, the endpoint list's %+v", when, got, want)
		}
	}
	rootReads("before the restart")
	jobsQ := wire.Query{Kind: wire.QueryAcctJobs, User: "alice", Limit: 50}
	var jobs accounting.Page
	askList(t, shards, jobsQ, &jobs)
	if len(jobs.Records) != 50 || jobs.Records[0].User != "alice" {
		t.Fatalf("alice's first page holds %d records (first %+v), want 50 of hers", len(jobs.Records), jobs.Records)
	}

	out := stops[1]()
	if !strings.Contains(out, "saved ") || !strings.Contains(out, " to "+dbFile) {
		t.Errorf("shutdown output names no save to %s:\n%s", dbFile, out)
	}
	// One file: no F.state beside it, and no temporary file left.
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != "shard.db" {
		t.Errorf("the shard left %v (%v), want shard.db alone", entries, err)
	}
	_, stops[1] = startDaemon(t, "-listen", shards[1], "-db", dbFile)

	var restarted eardbd.Aggregate
	askList(t, shards, aggQ, &restarted)
	if restarted != want {
		t.Errorf("after the restart the endpoint list reads %+v, before %+v", restarted, want)
	}
	// The root rebuilds its view from zero over the restored shard (a
	// redial moves its epoch) and reads the same.
	rootReads("after the restart")
	var jobsAfter accounting.Page
	askList(t, shards, jobsQ, &jobsAfter)
	if !reflect.DeepEqual(jobsAfter, jobs) {
		t.Errorf("alice's first page differs across the restart:\n before %+v\n after  %+v", jobs, jobsAfter)
	}

	m := scrape(t, root[1])
	dials := func(shard, result string) float64 {
		return m[`goear_eardbd_fed_dials_total{shard="`+shard+`",result="`+result+`"}`]
	}
	if n := m["goear_eardbd_fed_queries_total"]; n != 2 {
		t.Errorf("goear_eardbd_fed_queries_total = %v, want the 2 aggregates", n)
	}
	if m[`goear_eardbd_fed_fanout_total{shard="`+shards[0]+`",result="ok"}`] < 1 {
		t.Errorf("no ok fan-out leg to %s", shards[0])
	}
	for i, shard := range shards {
		if dials(shard, "new") != 1 {
			t.Errorf("shard %d: %v new dials, want 1", i, dials(shard, "new"))
		}
	}
	if dials(shards[0], "reused") < 1 {
		t.Errorf("shard 0: no reused dial")
	}
	if dials(shards[1], "redial") != 1 {
		t.Errorf("the restarted shard: %v redials, want 1", dials(shards[1], "redial"))
	}
	if m["goear_eardbd_fed_shards"] != 3 {
		t.Errorf("goear_eardbd_fed_shards = %v, want 3", m["goear_eardbd_fed_shards"])
	}
}

// TestRootJobsAPIHitsItsCache: a -fed root's /api/jobs serves the
// accounting its shards hold, and once ingest is quiet repeated reads
// are answered from the root's generation-keyed view cache.
func TestRootJobsAPIHitsItsCache(t *testing.T) {
	var shards []string
	for i := 0; i < 2; i++ {
		addrs, stop := startDaemon(t)
		defer stop()
		shards = append(shards, addrs[0])
	}
	root, stopRoot := startDaemon(t, "-fed", strings.Join(shards, ","), "-telemetry", "127.0.0.1:0")
	defer stopRoot()
	loadShards(t, shards, loadgen.Config{Nodes: 50, RecordsPerNode: 3, AcctPerNode: 2, Workers: 8, Seed: 1})

	for i := 0; i < 3; i++ {
		code, body := get(t, root[1], "/api/jobs?user=alice&limit=5")
		var page accounting.Page
		if err := json.Unmarshal([]byte(body), &page); code != 200 || err != nil {
			t.Fatalf("/api/jobs = %d %v: %s", code, err, body)
		}
		if len(page.Records) != 5 || page.Records[0].User != "alice" || !strings.Contains(body, `"user": "alice"`) {
			t.Fatalf("/api/jobs?user=alice&limit=5 served %s", body)
		}
	}
	m := scrape(t, root[1])
	if n := m["goear_accounting_queries_total"]; n != 3 {
		t.Errorf("goear_accounting_queries_total = %v, want the 3 reads", n)
	}
	if hits := m[`goear_eardbd_fed_cache_total{result="hit"}`]; hits != 2 {
		t.Errorf("goear_eardbd_fed_cache_total{result=\"hit\"} = %v after three quiet reads, want 2", hits)
	}
}

// TestTracedRootReadinessAndSpans: two traced shard daemons under a
// traced -fed root. Before any query the root is live but not ready —
// its shards are unproven, not dead; one fan-out proves both. The
// fan-out shows on the root's /traces (a fed.query span carrying the
// answer's size, over fed.fanout legs), the per-op latency families
// and the SLO summary are live, and the root counts the bytes of the
// aggregate it served.
func TestTracedRootReadinessAndSpans(t *testing.T) {
	var shards, shardTel []string
	for i := 0; i < 2; i++ {
		addrs, stop := startDaemon(t, "-telemetry", "127.0.0.1:0", "-trace")
		defer stop()
		shards, shardTel = append(shards, addrs[0]), append(shardTel, addrs[1])
	}
	root, stopRoot := startDaemon(t, "-fed", strings.Join(shards, ","), "-telemetry", "127.0.0.1:0", "-trace")
	defer stopRoot()
	rootTel := root[1]

	if code, body := get(t, rootTel, "/healthz"); code != 200 || !strings.Contains(body, `"name": "shards"`) ||
		!strings.Contains(body, "0/2 shards reachable") {
		t.Errorf("the root's /healthz before any query = %d %s", code, body)
	}
	if code, _ := get(t, rootTel, "/readyz"); code != 503 {
		t.Errorf("the root's /readyz before any query = %d, want 503", code)
	}
	for _, tel := range shardTel {
		if code, body := get(t, tel, "/readyz"); code != 200 || !strings.Contains(body, `"status": "ok"`) {
			t.Errorf("a shard's /readyz = %d %s", code, body)
		}
	}
	loadShards(t, shards, loadgen.Config{Nodes: 20, RecordsPerNode: 5, Workers: 4, Seed: 1})
	var agg eardbd.Aggregate
	ask(t, root[0], wire.Query{Kind: wire.QueryAggregate}, &agg)
	if agg.Nodes != 20 {
		t.Fatalf("the root's aggregate is %+v, want 20 nodes", agg)
	}
	// The root ends the query's span and times it before the answer
	// leaves: both are there as soon as the answer is.
	_, body := get(t, rootTel, "/traces?kind=fed")
	var queries, fanouts int
	dec := json.NewDecoder(strings.NewReader(body))
	for dec.More() {
		var s trace.Span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		attrs := map[string]string{}
		for _, a := range s.Attrs {
			attrs[a.Key] = a.Value
		}
		switch s.Kind {
		case "fed.query":
			queries++
			if n, err := strconv.Atoi(attrs["bytes"]); err != nil || n < 1 {
				t.Errorf("fed.query bytes = %q", attrs["bytes"])
			}
		case "fed.fanout":
			fanouts++
		}
	}
	if queries != 1 || fanouts < 2 {
		t.Errorf("the root's /traces hold %d fed.query and %d fed.fanout spans, want 1 over 2 or more:\n%s", queries, fanouts, body)
	}
	if code, body := get(t, rootTel, "/readyz"); code != 200 || !strings.Contains(body, "2/2 shards reachable") {
		t.Errorf("the root's /readyz after one fan-out = %d %s", code, body)
	}
	if _, body := get(t, rootTel, "/healthz"); !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("the root's /healthz after one fan-out = %s", body)
	}
	if m := scrape(t, shardTel[0]); m[`goear_eardbd_latency_seconds_count{op="batch"}`] < 1 {
		t.Errorf("a shard's /metrics hold no batch latency")
	}
	m := scrape(t, rootTel)
	if m[`goear_eardbd_fed_latency_seconds_count{op="query"}`] != 1 || m[`goear_eardbd_fed_latency_seconds_count{op="fanout"}`] < 2 {
		t.Errorf("the root's latency counts: %v queries, %v fan-out legs; want 1 over 2 or more",
			m[`goear_eardbd_fed_latency_seconds_count{op="query"}`], m[`goear_eardbd_fed_latency_seconds_count{op="fanout"}`])
	}
	if m[`goear_eardbd_reply_bytes_total{kind="aggregate"}`] < 1 {
		t.Errorf(`goear_eardbd_reply_bytes_total{kind="aggregate"} = %v, want the served bytes`, m[`goear_eardbd_reply_bytes_total{kind="aggregate"}`])
	}
	if code, body := get(t, rootTel, "/slo"); code != 200 || !strings.Contains(body, `"op"`) {
		t.Errorf("the root's /slo = %d %s", code, body)
	}
}
