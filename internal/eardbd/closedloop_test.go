package eardbd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/dbdtest"
	"goear/internal/eargm"
	"goear/internal/loadgen"
	"goear/internal/telemetry"
	"goear/internal/wire"
)

// runClosedLoop drives the full reporting tier deterministically: N
// simulated nodes, each a real buffering client over net.Pipe, stream
// job records into one eardbd server under `workers` concurrent
// feeders; the eargm budget ratchet then runs off the server's
// aggregate. It returns the canonical transcript, which must be
// byte-identical whatever the worker count, repetition — or, in the
// federated variants below, the shard count and fault history.
func runClosedLoop(t *testing.T, nodes, workers int) string {
	t.Helper()
	cluster, g := buildCanonical(t, nodes, workers, 1, nil)
	res, err := g.Run(cluster.DialFor, loadgen.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeErrors != 0 || res.BacklogBatches != 0 {
		t.Fatalf("canonical feed faulted: %+v", res)
	}
	tr, err := dbdtest.Transcript(cluster.Server("shard0"), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// buildCanonical assembles a shard cluster and a generator for the
// canonical workload.
func buildCanonical(t *testing.T, nodes, workers, shards int, set *telemetry.Set) (*loadgen.Cluster, *loadgen.Generator) {
	t.Helper()
	cluster, err := loadgen.NewCluster(shards, eardbd.Config{Telemetry: set})
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadgen.New(loadgen.Config{
		Nodes:     nodes,
		Workers:   workers,
		NodeName:  dbdtest.CanonicalNode,
		Telemetry: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, g
}

// TestClosedLoopDeterminism pins the tentpole contract: the node →
// eardbd → eargm pipeline produces byte-identical transcripts across
// repeated runs and across feeder worker counts.
func TestClosedLoopDeterminism(t *testing.T) {
	const nodes = 8
	ref := runClosedLoop(t, nodes, 1)
	if !strings.Contains(ref, "accepted=80") {
		t.Fatalf("transcript missing the %d records:\n%s", nodes*10, ref)
	}
	for _, workers := range []int{1, 4, 8} {
		for rep := 0; rep < 2; rep++ {
			got := runClosedLoop(t, nodes, workers)
			if got != ref {
				t.Fatalf("workers=%d rep=%d transcript differs:\n--- want\n%s--- got\n%s", workers, rep, ref, got)
			}
		}
	}
}

// TestClosedLoopRatchetsUnderBudget checks the control outcome, not
// just its determinism: with the budget below the uncapped draw the
// manager must impose a cap, visible in the event trace.
func TestClosedLoopRatchetsUnderBudget(t *testing.T) {
	out := runClosedLoop(t, 8, 4)
	var agg eardbd.Aggregate
	if err := json.Unmarshal([]byte(out[:strings.Index(out, "\n")]), &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Nodes != 8 || agg.Records != 80 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if agg.TotalPowerW <= 260*8 {
		t.Fatalf("seeded powers landed under budget, test fixture broken: %g", agg.TotalPowerW)
	}
	if !strings.Contains(out, `"FinalCap":`) {
		t.Fatalf("transcript lacks manager stats:\n%s", out)
	}
	var m eargm.Stats
	lines := strings.Split(out, "\n")
	if err := json.Unmarshal([]byte(lines[4]), &m); err != nil {
		t.Fatal(err)
	}
	if m.FinalCap == 0 {
		t.Errorf("manager left the cluster uncapped over budget: %+v", m)
	}
}

// TestClosedLoopFederationShardCounts extends the golden across the
// federation tier: the same workload through 1, 2 and 4 shards,
// queried through the federation root, must render the exact
// single-daemon transcript — merge order, float summation order and
// summary arithmetic all included.
func TestClosedLoopFederationShardCounts(t *testing.T) {
	const nodes = 8
	ref := runClosedLoop(t, nodes, 4)
	for _, shards := range []int{1, 2, 4} {
		cluster, g := buildCanonical(t, nodes, 4, shards, nil)
		res, err := g.Run(cluster.DialFor, loadgen.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if res.NodeErrors != 0 || res.BacklogBatches != 0 {
			t.Fatalf("shards=%d: feed faulted: %+v", shards, res)
		}
		root, err := cluster.Root()
		if err != nil {
			t.Fatal(err)
		}
		got, err := dbdtest.Transcript(root, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("shards=%d: federated transcript differs from single-daemon golden:\n--- want\n%s--- got\n%s", shards, ref, got)
		}
	}
}

// ask opens one connection with dial — a daemon's or a root's Dial —
// and puts the queries to it through eardbd.Query, the way an admin
// client does. An acct_jobs query is walked through its cursors, one
// result per page.
func ask(dial func() (net.Conn, error), queries []wire.Query) ([]wire.Result, error) {
	client, err := dial()
	if err != nil {
		return nil, err
	}
	defer func() { _ = client.Close() }() // ends the serving loop
	var out []wire.Result
	for _, q := range queries {
		for {
			res, err := eardbd.Query(client, q, 0)
			if err != nil {
				return nil, fmt.Errorf("%s query: %w", q.Kind, err)
			}
			// The result aliases the frame it arrived in; keep a copy.
			res.Data = append([]byte(nil), res.Data...)
			out = append(out, res)
			if q.Kind != wire.QueryAcctJobs {
				break
			}
			var page accounting.Page
			if err := res.Decode(&page); err != nil {
				return nil, err
			}
			if page.Next == "" {
				break
			}
			q.Cursor = page.Next
		}
	}
	return out, nil
}

// TestClosedLoopQueryKindsOverTheWire puts all nine query kinds to a
// single daemon and to a root over 1, 2 and 4 shards holding the same
// record set — node reports and job accounting records — through
// eardbd.Query over a pipe, and requires byte-equal result payloads:
// one query switch serves both, so an admin client cannot tell them
// apart. Two kinds are compared by what they promise instead of by
// bytes: stats (the root sums the shards' ingest counters; connection
// and query counts differ by construction) and generation (equal
// between two reads iff nothing was written between them).
func TestClosedLoopQueryKindsOverTheWire(t *testing.T) {
	const nodes = 12
	queries := []wire.Query{
		{Kind: wire.QueryAggregate},
		{Kind: wire.QueryJobs},
		{Kind: wire.QuerySummary, Job: "job1", Step: "0"},
		{Kind: wire.QueryNodePowers},
		{Kind: wire.QueryRecords},
		{Kind: wire.QueryAcctJobs, Limit: 7},
		{Kind: wire.QueryAcctJobs, User: "alice", Limit: 5},
		{Kind: wire.QueryAcctRecords},
		{Kind: wire.QueryStats},
		{Kind: wire.QueryGeneration},
		{Kind: wire.QueryGeneration},
	}
	load := func(shards int) *loadgen.Cluster {
		t.Helper()
		cluster, err := loadgen.NewCluster(shards, eardbd.Config{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := loadgen.New(loadgen.Config{Nodes: nodes, Workers: 4, AcctPerNode: 3, NodeName: dbdtest.CanonicalNode})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := g.Run(cluster.DialFor, loadgen.Hooks{}); err != nil || res.NodeErrors != 0 || res.BacklogBatches != 0 {
			t.Fatalf("shards=%d: feed faulted: %+v, %v", shards, res, err)
		}
		return cluster
	}
	ingest := func(res wire.Result) eardbd.Stats {
		t.Helper()
		var st eardbd.Stats
		if err := res.Decode(&st); err != nil {
			t.Fatal(err)
		}
		st.Connections, st.Queries = 0, 0
		return st
	}
	generation := func(res wire.Result) uint64 {
		t.Helper()
		var g wire.Generation
		if err := res.Decode(&g); err != nil {
			t.Fatal(err)
		}
		return g.Gen
	}

	ref, err := ask(load(1).Server("shard0").Dial, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) < len(queries)+2 {
		t.Fatalf("%d results: the acct_jobs walks did not page", len(ref))
	}
	for _, shards := range []int{1, 2, 4} {
		cluster := load(shards)
		root, err := cluster.Root()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ask(root.Dial, queries)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("shards=%d: %d results, the daemon gave %d", shards, len(got), len(ref))
		}
		for i, want := range ref {
			switch want.Kind {
			case wire.QueryStats:
				if g, w := ingest(got[i]), ingest(want); g != w {
					t.Errorf("shards=%d: root ingest counters %+v, daemon's %+v", shards, g, w)
				}
			case wire.QueryGeneration:
			default:
				if got[i].Kind != want.Kind || !bytes.Equal(got[i].Data, want.Data) {
					t.Errorf("shards=%d: result %d (%s) differs from the daemon's: %d vs %d bytes",
						shards, i, want.Kind, len(got[i].Data), len(want.Data))
				}
			}
		}
		// Generation: the two back-to-back reads agree; one more record
		// on one shard moves the next read, on the daemon as on the root.
		n := len(got)
		if a, b := generation(got[n-2]), generation(got[n-1]); a != b {
			t.Errorf("shards=%d: generation moved from %d to %d with no write", shards, a, b)
		}
		node := dbdtest.CanonicalNode(0)
		conn, err := cluster.DialFor(node)()
		if err != nil {
			t.Fatal(err)
		}
		f, err := wire.EncodeBatch(wire.Batch{ID: node + "/late", Node: node, Records: []eard.JobRecord{
			{JobID: "late", StepID: "0", Node: node, TimeSec: 1, EnergyJ: 1, AvgPower: 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(conn, f, 0); err != nil {
			t.Fatal(err)
		}
		if resp, err := wire.ReadFrame(conn, 0); err != nil || resp.Type != wire.TypeAck {
			t.Fatalf("late batch not acked: %v %v", resp.Type, err)
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
		for name, dial := range map[string]func() (net.Conn, error){
			"root": root.Dial, "daemon": cluster.Server(cluster.Fleet().Owner(node)).Dial,
		} {
			after, err := ask(dial, []wire.Query{{Kind: wire.QueryGeneration}, {Kind: wire.QueryGeneration}})
			if err != nil {
				t.Fatal(err)
			}
			if a, b := generation(after[0]), generation(after[1]); a != b {
				t.Errorf("shards=%d: %s generation moved from %d to %d with no write", shards, name, a, b)
			}
			if name == "root" && generation(after[0]) == generation(got[n-1]) {
				t.Errorf("shards=%d: root generation still %d after a write", shards, generation(after[0]))
			}
		}
	}
}

// TestReplyBufferReuseMatchesFreshAnswer asks one connection — of a
// daemon, and of a root over four shards — for a large reply, small
// ones, and the large one again, so the connection's kept buffer is
// outgrown, reused and outgrown again, and requires every reply to be
// exactly the bytes Answer builds in a fresh payload. Replies are
// encoded straight from shared snapshots and store rows; the canonical
// transcript rendered before and after shows serving left them as they
// were.
func TestReplyBufferReuseMatchesFreshAnswer(t *testing.T) {
	const nodes = 400 // every shard holds more node reports than a kept buffer
	cluster, err := loadgen.NewCluster(4, eardbd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	g, err := loadgen.New(loadgen.Config{Nodes: nodes, Workers: 4, AcctPerNode: 4, NodeName: dbdtest.CanonicalNode})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := g.Run(cluster.DialFor, loadgen.Hooks{}); err != nil || res.NodeErrors != 0 || res.BacklogBatches != 0 {
		t.Fatalf("feed faulted: %+v, %v", res, err)
	}
	root, err := cluster.Root()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = root.Close() })

	sequence := []wire.Query{
		{Kind: wire.QueryGeneration},
		{Kind: wire.QueryRecords}, // outgrows the kept buffer
		{Kind: wire.QueryGeneration},
		{Kind: wire.QueryAcctJobs, User: "alice", Limit: 5},
		{Kind: wire.QueryAcctRecords},
		{Kind: wire.QueryNodePowers},
		{Kind: wire.QueryAcctJobs, Limit: 200},
		{Kind: wire.QueryAggregate},
		{Kind: wire.QueryRecords},
		{Kind: wire.QuerySummary, Job: "job1", Step: "0"},
		{Kind: wire.QueryGeneration},
	}
	for name, v := range map[string]interface {
		dbdtest.View
		Dial() (net.Conn, error)
	}{"daemon": cluster.Server("shard0"), "root": root} {
		before, err := dbdtest.Transcript(v, nodes)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ask(v.Dial, sequence)
		if err != nil {
			t.Fatal(err)
		}
		large := 0
		i := 0
		for _, q := range sequence {
			for ; ; i++ { // an acct_jobs query is one result per page
				fresh, err := eardbd.Answer(nil, v, nil, q)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[i].Data, fresh[1:]) {
					t.Errorf("%s: reply %d (%s) over a reused buffer is %d bytes, a fresh Answer %d, or they differ",
						name, i, q.Kind, len(got[i].Data), len(fresh)-1)
				}
				if len(fresh) > wire.MaxKept {
					large++
				}
				var page accounting.Page
				if q.Kind != wire.QueryAcctJobs || got[i].Decode(&page) != nil || page.Next == "" {
					i++
					break
				}
				q.Cursor = page.Next
			}
		}
		if i != len(got) {
			t.Fatalf("%s: compared %d of %d replies", name, i, len(got))
		}
		if large < 2 {
			t.Errorf("%s: only %d replies outgrew a kept buffer; the sequence tests nothing", name, large)
		}
		after, err := dbdtest.Transcript(v, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if after != before {
			t.Errorf("%s: serving changed the state the transcript renders", name)
		}
	}
}

// TestClosedLoopFederationFaultReplay kills a shard mid-load and
// restarts it before the drain: the spill journals must replay
// exactly once — asserted through the goear_eardbd_* client telemetry
// — and the federated transcript must match the no-fault golden in
// everything but the redelivery counters.
func TestClosedLoopFederationFaultReplay(t *testing.T) {
	const nodes, shards = 24, 3
	golden := runClosedLoop(t, nodes, 4)

	set := telemetry.NewSet()
	cluster, g := buildCanonical(t, nodes, 4, shards, set)
	// Kill the shard owning a mid-burst node once a few nodes are
	// done: the owner's remaining reporters must spill.
	victim := cluster.Fleet().Owner(dbdtest.CanonicalNode(nodes - 1))
	var done int64
	var killing atomic.Bool
	res, err := g.Run(cluster.DialFor, loadgen.Hooks{AfterNode: func(i int) {
		if atomic.AddInt64(&done, 1) >= 6 && killing.CompareAndSwap(false, true) {
			if err := cluster.Kill(victim); err != nil {
				t.Error(err)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeErrors != 0 {
		t.Fatalf("node reporters failed: %+v", res)
	}
	if err := cluster.Restart(victim); err != nil {
		t.Fatal(err)
	}
	left, err := g.Drain(cluster.DialFor, 5)
	if err != nil {
		t.Fatal(err)
	}
	if left != 0 {
		t.Fatalf("drain left %d batches journaled", left)
	}

	st := g.Stats()
	if st.BatchesSpilled == 0 {
		t.Fatal("kill produced no spills; fault timing broken")
	}
	if st.BatchesSpilled != st.BatchesReplayed {
		t.Fatalf("spilled %d batches, replayed %d", st.BatchesSpilled, st.BatchesReplayed)
	}
	var b strings.Builder
	if err := set.Reg().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	samples, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		vals[s.Name+s.Labels] = s.Value
	}
	spilled := vals["goear_eardbd_client_batches_spilled_total"]
	replayed := vals["goear_eardbd_client_batches_replayed_total"]
	if spilled == 0 || spilled != replayed {
		t.Fatalf("telemetry spill/replay = %g/%g, want equal and positive", spilled, replayed)
	}
	if dropped := vals["goear_eardbd_client_records_dropped_total"]; dropped != 0 {
		t.Fatalf("telemetry reports %g dropped records", dropped)
	}

	root, err := cluster.Root()
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := dbdtest.Transcript(root, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if dbdtest.TrimStats(faulted) != dbdtest.TrimStats(golden) {
		t.Fatalf("faulted transcript differs from no-fault golden:\n--- want\n%s--- got\n%s", golden, faulted)
	}
}
