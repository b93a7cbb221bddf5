package fed

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/dbdtest"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// TestMissRefoldsOnlyMovedParts: a miss folds again only the parts whose
// stamps moved on some shard and shares the rest with the cached view —
// stores, power list and the accounting store's own snapshot cache — and
// says which it folded on /metrics and on the fed.merge span.
func TestMissRefoldsOnlyMovedParts(t *testing.T) {
	shards := make([]shardFixture, 2)
	for i := range shards {
		// A window of one batch ID, so an old batch delivered again is
		// deduplicated record by record, as after a long outage.
		shards[i] = shardFixture{name: fmt.Sprintf("s%d", i), srv: eardbd.NewServer(eard.NewDB(), eardbd.Config{MaxSeenBatches: 1})}
	}
	fleet, err := NewFleet([]string{"s0", "s1"}, dialer(shards))
	if err != nil {
		t.Fatal(err)
	}
	ts, spans := telemetry.NewSet(), trace.NewBuffer(0)
	root, err := NewRoot(Config{Fleet: fleet, Telemetry: ts, Trace: spans})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = root.Close() })
	send := func(b wire.Batch) wire.Ack { return deliver(t, fleet.DialFor(b.Node), b) }
	for i := 0; i < 6; i++ {
		node := fmt.Sprintf("n%02d", i)
		send(wire.Batch{ID: node + "/1", Node: node, Records: []eard.JobRecord{report(node, "job0", "0", 250)},
			Acct: []accounting.Record{window(node, "job0", 0, 30000)}})
	}
	// read takes a view under a traced query, reads the accounting
	// snapshot as a page would, and returns the view and what its
	// fed.merge span says was folded.
	read := func() (eardbd.View, string) {
		t.Helper()
		sp := root.Tracer.Root(spanFedQuery, 0)
		v, err := root.View(sp)
		if err != nil {
			t.Fatal(err)
		}
		v.Acct.Snapshot()
		merges := 0
		var refold string
		for _, s := range spans.Spans() {
			if s.Kind == spanFedMerge {
				merges++
				refold = s.Attrs.Get("refold")
			}
		}
		if merges == 0 {
			t.Fatal("no fed.merge span")
		}
		return v, refold
	}
	acctMisses := func() float64 {
		return series(t, ts, `goear_accounting_snapshot_cache_total{result="miss"}`)
	}

	cold, refold := read()
	if refold != "records,acct,powers" || acctMisses() != 1 {
		t.Fatalf("cold view refolds %q with %v snapshot misses, want all three and one", refold, acctMisses())
	}

	send(wire.Batch{ID: "n00/2", Node: "n00", Records: []eard.JobRecord{report("n00", "job0", "1", 260)}})
	recs, refold := read()
	if refold != "records,powers" || recs.Acct != cold.Acct || acctMisses() != 1 || recs.DB == cold.DB {
		t.Errorf("a node report refolds %q and %v the accounting store (%v snapshot misses); want records,powers, the same store and one miss",
			refold, map[bool]string{true: "keeps", false: "replaces"}[recs.Acct == cold.Acct], acctMisses())
	}

	send(wire.Batch{ID: "n01/2", Node: "n01", Acct: []accounting.Record{window("n01", "job0", 1, 31000)}})
	acct, refold := read()
	if refold != "acct" || acct.DB != recs.DB || &acct.Powers[0] != &recs.Powers[0] || acct.Acct == recs.Acct || acctMisses() != 2 {
		t.Errorf("an accounting record refolds %q (%v snapshot misses), want acct alone and the node reports and powers kept", refold, acctMisses())
	}

	// n00's step-0 batch again, once the window has forgotten it: its
	// record is a duplicate, but n00's last reported power is its power.
	if ack := send(wire.Batch{ID: "n00/1", Node: "n00", Records: []eard.JobRecord{report("n00", "job0", "0", 250)}}); ack.Duplicate != 1 {
		t.Fatalf("re-delivery ack = %+v, want one duplicate record", ack)
	}
	powers, refold := read()
	if refold != "powers" || powers.DB != acct.DB || powers.Acct != acct.Acct || powers.Powers[0].PowerW != 250 {
		t.Errorf("a duplicate re-delivery refolds %q, n00 at %v W; want powers alone and n00 back at 250 W", refold, powers.Powers[0].PowerW)
	}

	if hit, _ := read(); hit.DB != powers.DB || hit.Acct != powers.Acct {
		t.Error("a read with no write in between did not hit the cache")
	}
	for part, want := range map[string]float64{"records": 2, "acct": 2, "powers": 3} {
		if got := series(t, ts, metricFedRefolds+`{part="`+part+`"}`); got != want {
			t.Errorf("%s refolds = %v, want %v", part, got, want)
		}
	}
	if st := root.Stats(); st.CacheMisses != 4 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want four misses and a hit", st)
	}
}

// mixedScript moves the parts of a fleet's view alone and together: node
// reports, accounting records, both, a replacement of each, an identical
// re-delivery, and an old batch delivered again once its shard's
// one-batch window has forgotten it, which moves only a power. Every
// re-delivery follows a batch of the same node, so it meets the same
// window on a shard as on a single daemon.
func mixedScript() []wire.Batch {
	var script []wire.Batch
	for i := 0; i < 8; i++ {
		node := dbdtest.CanonicalNode(i)
		script = append(script, wire.Batch{ID: node + "/1", Node: node, Records: []eard.JobRecord{report(node, "job0", "0", 250+float64(i))}})
	}
	return append(script,
		wire.Batch{ID: "n00/2", Node: "n00", Acct: []accounting.Record{window("n00", "job0", 0, 30000)}},
		wire.Batch{ID: "n01/2", Node: "n01", Records: []eard.JobRecord{report("n01", "job1", "0", 270)},
			Acct: []accounting.Record{window("n01", "job0", 0, 31000), window("n01", "job0", 1, 32000)}},
		wire.Batch{ID: "n02/2", Node: "n02", Records: []eard.JobRecord{report("n02", "job0", "1", 280)}},
		wire.Batch{ID: "n02/1", Node: "n02", Records: []eard.JobRecord{report("n02", "job0", "0", 252)}},
		wire.Batch{ID: "n03/2", Node: "n03", Records: []eard.JobRecord{report("n03", "job0", "0", 290)}},
		wire.Batch{ID: "n01/3", Node: "n01", Acct: []accounting.Record{window("n01", "job0", 1, 33000)}},
		wire.Batch{ID: "n04/2", Node: "n04", Records: []eard.JobRecord{report("n04", "job2", "0", 300)},
			Acct: []accounting.Record{window("n04", "job2", 0, 36000)}},
		wire.Batch{ID: "n04/2", Node: "n04", Records: []eard.JobRecord{report("n04", "job2", "0", 300)},
			Acct: []accounting.Record{window("n04", "job2", 0, 36000)}},
		wire.Batch{ID: "n05/2", Node: "n05", Records: []eard.JobRecord{report("n05", "job0", "0", 255)}},
	)
}

// TestWarmRootAnswersLikeColdAndDaemon runs mixedScript into a single
// daemon and into 1, 2 and 4 shards, and after every batch puts every
// query kind to a root that has cached through the whole script, to a
// root built for that one read, and to the daemon: the answers must be
// the same bytes (the ingest counters less connections and queries,
// which differ by construction), and so must the closed-loop
// transcripts at the end.
func TestWarmRootAnswersLikeColdAndDaemon(t *testing.T) {
	queries := []wire.Query{
		{Kind: wire.QueryAggregate},
		{Kind: wire.QueryJobs},
		{Kind: wire.QuerySummary, Job: "job0", Step: "0"},
		{Kind: wire.QueryNodePowers},
		{Kind: wire.QueryRecords},
		{Kind: wire.QueryAcctJobs, Limit: 3},
		{Kind: wire.QueryAcctRecords},
		{Kind: wire.QueryStats},
	}
	answer := func(b eardbd.Backend, q wire.Query) []byte {
		t.Helper()
		payload, err := eardbd.Answer(nil, b, nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if q.Kind != wire.QueryStats {
			return payload
		}
		var st eardbd.Stats
		if err := (wire.Result{Kind: q.Kind, Data: payload[1:]}).Decode(&st); err != nil {
			t.Fatal(err)
		}
		st.Connections, st.Queries = 0, 0
		return []byte(fmt.Sprintf("%+v", st))
	}
	cfg := eardbd.Config{MaxSeenBatches: 1}
	for _, n := range []int{1, 2, 4} {
		daemon := eardbd.NewServer(eard.NewDB(), cfg)
		shards := make([]shardFixture, n)
		for i := range shards {
			shards[i] = shardFixture{name: fmt.Sprintf("s%d", i), srv: eardbd.NewServer(eard.NewDB(), cfg)}
		}
		warm := rootOver(t, shards, dialer(shards))
		for step, b := range mixedScript() {
			single, sharded := deliver(t, daemon.Dial, b), deliver(t, warm.cfg.Fleet.DialFor(b.Node), b)
			if single != sharded {
				t.Fatalf("shards=%d step %d: the daemon acked %+v, the owning shard %+v", n, step, single, sharded)
			}
			cold := rootOver(t, shards, dialer(shards))
			for _, q := range queries {
				want := answer(daemon, q)
				for name, root := range map[string]*Root{"warm": warm, "cold": cold} {
					if got := answer(root, q); !bytes.Equal(got, want) {
						t.Errorf("shards=%d step %d: the %s root's %s answer differs from the daemon's", n, step, name, q.Kind)
					}
				}
			}
			if err := cold.Close(); err != nil {
				t.Fatal(err)
			}
		}
		want, err := dbdtest.Transcript(daemon, 8)
		if err != nil {
			t.Fatal(err)
		}
		cold := rootOver(t, shards, dialer(shards))
		for name, root := range map[string]*Root{"warm": warm, "cold": cold} {
			if got, err := dbdtest.Transcript(root, 8); err != nil || got != want {
				t.Errorf("shards=%d: the %s root's transcript (%v)\n%s\ndiffers from the daemon's\n%s", n, name, err, got, want)
			}
		}
		if st := warm.Stats(); st.CacheMisses > len(mixedScript())+1 {
			t.Errorf("shards=%d: the warm root missed %d times for %d batches", n, st.CacheMisses, len(mixedScript()))
		}
		for _, c := range []interface{ Close() error }{warm, cold, daemon} {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStackedRootServesNoStaleView: a root over a root. Shards a and b
// sit under the inner root, whose one shard to the outer root it is.
// n1 reports through a and n2 through b; then a comes back empty and b
// takes one more batch, which leaves the shards' counters summing to
// what they summed before. The outer root must read what the inner one
// reads.
func TestStackedRootServesNoStaleView(t *testing.T) {
	var a atomic.Pointer[eardbd.Server]
	a.Store(eardbd.NewServer(eard.NewDB(), eardbd.Config{}))
	b := eardbd.NewServer(eard.NewDB(), eardbd.Config{})
	dialA := func() (net.Conn, error) { return a.Load().Dial() }
	innerFleet, err := NewFleet([]string{"a", "b"}, func(name string) (net.Conn, error) {
		if name == "a" {
			return dialA()
		}
		return b.Dial()
	})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewRoot(Config{Fleet: innerFleet})
	if err != nil {
		t.Fatal(err)
	}
	outerFleet, err := NewFleet([]string{"inner"}, func(string) (net.Conn, error) { return inner.Dial() })
	if err != nil {
		t.Fatal(err)
	}
	outer, err := NewRoot(Config{Fleet: outerFleet})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _, _ = outer.Close(), inner.Close() })
	batch := func(node, job string, power float64) wire.Batch {
		return wire.Batch{ID: node + "/" + job, Node: node, Records: []eard.JobRecord{report(node, job, "0", power)}}
	}

	deliver(t, dialA, batch("n1", "job1", 50))
	deliver(t, b.Dial, batch("n2", "job1", 250))
	if agg, err := outer.Aggregate(); err != nil || agg.Nodes != 2 || agg.TotalPowerW != 300 {
		t.Fatalf("before the restart the outer root reads %+v, %v", agg, err)
	}
	if err := a.Load().Close(); err != nil {
		t.Fatal(err)
	}
	a.Store(eardbd.NewServer(eard.NewDB(), eardbd.Config{}))
	deliver(t, b.Dial, batch("n2", "job2", 250))
	want, err := inner.Aggregate()
	if err != nil || want.Nodes != 1 || want.TotalPowerW != 250 {
		t.Fatalf("the inner root reads %+v, %v; want n2 alone at 250 W", want, err)
	}
	if got, err := outer.Aggregate(); err != nil || got != want {
		t.Errorf("the outer root reads %+v (%v), the inner root %+v", got, err, want)
	}
	// Under one epoch, the inner root's part stamps move with its shards'.
	deliver(t, b.Dial, batch("n2", "job3", 270))
	if want, err = inner.Aggregate(); err != nil || want.TotalPowerW != 270 {
		t.Fatalf("the inner root reads %+v, %v; want n2 at 270 W", want, err)
	}
	if got, err := outer.Aggregate(); err != nil || got != want {
		t.Errorf("after one more batch the outer root reads %+v (%v), the inner root %+v", got, err, want)
	}
}

// BenchmarkRootMissAfterWrite is the miss query-mixed pays after each
// write: four shards holding node reports and accounting records, one
// node report that replaces a record and moves its node's power, then a
// view — which folds the node reports and powers again and keeps the
// accounting store.
func BenchmarkRootMissAfterWrite(b *testing.B) {
	_, root := buildFederation(b, 8, 4)
	b.Cleanup(func() { _ = root.Close() })
	for i := 0; i < 8; i++ {
		node := fmt.Sprintf("n%02d", i)
		acct := make([]accounting.Record, 10)
		for j := range acct {
			acct[j] = window(node, fmt.Sprintf("job%d", j%3), j, 30000+float64(j))
		}
		deliver(b, root.cfg.Fleet.DialFor(node), wire.Batch{ID: node + "/acct", Node: node, Acct: acct})
	}
	// Named apart from n00's own reporter, whose batch IDs the shard's
	// window still holds.
	writer, err := eardbd.NewClient(eardbd.ClientConfig{
		Node: "late-n00", Dial: root.cfg.Fleet.DialFor("n00"), Clock: eardbd.NewFakeClock(0), Jitter: rand.New(rand.NewSource(1)), BatchRecords: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = writer.Close() })
	write := func(i int) {
		if err := writer.Enqueue(report("n00", "job0", "0", 300+float64(i%2))); err != nil {
			b.Fatal(err)
		}
		if _, err := root.View(nil); err != nil {
			b.Fatal(err)
		}
	}
	write(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(i)
	}
	b.StopTimer()
	if st := root.Stats(); st.CacheHits != 0 {
		b.Fatalf("stats = %+v: a write did not move the view", st)
	}
}
