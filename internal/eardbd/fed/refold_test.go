package fed

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"goear/internal/accounting"
	"goear/internal/alloctest"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/dbdtest"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// TestMissRefoldsOnlyMovedParts: a miss rebuilds only the parts whose
// stamps moved on some shard and shares the rest with the cached view —
// the stores themselves, the same pointers, and the power list — and
// says which it rebuilt, and how, on /metrics and on the fed.merge span:
// the cold view in full, from changes from zero, every later one from
// the changes since.
func TestMissRefoldsOnlyMovedParts(t *testing.T) {
	shards := make([]shardFixture, 2)
	for i := range shards {
		shards[i] = shardFixture{name: fmt.Sprintf("s%d", i), srv: eardbd.NewServer(eard.NewDB(), eardbd.Config{})}
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
	send := func(b wire.Batch) { deliver(t, fleet.DialFor(b.Node), b) }
	duplicates := func() (n int) {
		for _, sh := range shards {
			n += sh.srv.Stats().RecordsDuplicate
		}
		return n
	}
	for i := 0; i < 6; i++ {
		node := fmt.Sprintf("n%02d", i)
		send(wire.Batch{ID: node + "/1", Node: node, Records: []eard.JobRecord{report(node, "job0", "0", 250)},
			Acct: []accounting.Record{window(node, "job0", 0, 30000)}})
	}
	// read takes a view under a traced query and returns it and what its
	// fed.merge span says was folded.
	read := func() (eardbd.View, string) {
		t.Helper()
		sp := root.Tracer.Root(spanFedQuery, 0)
		v, err := root.View(sp)
		if err != nil {
			t.Fatal(err)
		}
		merges := 0
		var refold string
		for _, s := range spans.Spans() {
			if s.Kind == spanFedMerge {
				merges++
				for _, a := range s.Attrs {
					if a.Key == "refold" {
						refold = a.Value
					}
				}
			}
		}
		if merges == 0 {
			t.Fatal("no fed.merge span")
		}
		return v, refold
	}
	cold, refold := read()
	if refold != "full:cold records,acct,powers" {
		t.Fatalf("cold view refolds %q, want all three", refold)
	}

	send(wire.Batch{ID: "n00/2", Node: "n00", Records: []eard.JobRecord{report("n00", "job0", "1", 260)}})
	recs, refold := read()
	if refold != "delta records,powers" || recs.Acct != cold.Acct || recs.DB == cold.DB {
		t.Errorf("a node report refolds %q and %v the accounting store; want records,powers and the same *accounting.Store",
			refold, map[bool]string{true: "keeps", false: "replaces"}[recs.Acct == cold.Acct])
	}

	send(wire.Batch{ID: "n01/2", Node: "n01", Acct: []accounting.Record{window("n01", "job0", 1, 31000)}})
	acct, refold := read()
	if refold != "delta acct" || acct.DB != recs.DB || &acct.Powers[0] != &recs.Powers[0] || acct.Acct == recs.Acct {
		t.Errorf("an accounting record refolds %q, want acct alone, a new accounting store and the node reports and powers kept", refold)
	}

	// n00's step-0 record again, under an ID the batch window does not
	// hold, as after a long outage has pushed the old one out: the record
	// is a duplicate, but n00's last reported power is its power.
	dups := duplicates()
	if send(wire.Batch{ID: "n00/3", Node: "n00", Records: []eard.JobRecord{report("n00", "job0", "0", 250)}}); duplicates() != dups+1 {
		t.Fatalf("re-delivery counted %d duplicate records, want one", duplicates()-dups)
	}
	powers, refold := read()
	if refold != "delta powers" || powers.DB != acct.DB || powers.Acct != acct.Acct || powers.Powers[0].PowerW != 250 {
		t.Errorf("a duplicate re-delivery refolds %q, n00 at %v W; want powers alone and n00 back at 250 W", refold, powers.Powers[0].PowerW)
	}

	if hit, _ := read(); hit.DB != powers.DB || hit.Acct != powers.Acct {
		t.Error("a read with no write in between did not hit the cache")
	}
	for part, want := range map[string][2]float64{"records": {1, 1}, "acct": {1, 1}, "powers": {1, 2}} {
		for i, how := range []string{"full", "delta"} {
			if got := series(t, ts, metricFedRefolds+`{part="`+part+`",how="`+how+`"}`); got != want[i] {
				t.Errorf("%s refolds how=%s = %v, want %v", part, how, got, want[i])
			}
		}
	}
	if st := root.Stats(); st.CacheMisses != 4 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want four misses and a hit", st)
	}
}

// mixedScript moves the parts of a fleet's view alone and together: node
// reports, accounting records, both, a replacement of each, an identical
// re-delivery, and an old record delivered again under an ID the batch
// window does not hold, which moves only a power. Every re-delivery
// follows a batch of the same node, so it meets the same window on a
// shard as on a single daemon.
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
		wire.Batch{ID: "n02/3", Node: "n02", Records: []eard.JobRecord{report("n02", "job0", "0", 252)}},
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
		{Kind: wire.QueryChanges}, // from zero: the whole view
		{Kind: wire.QueryAcctJobs, Limit: 3},
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
	cfg := eardbd.Config{}
	for _, n := range []int{1, 2, 4} {
		daemon := eardbd.NewServer(eard.NewDB(), cfg)
		shards := make([]shardFixture, n)
		for i := range shards {
			shards[i] = shardFixture{name: fmt.Sprintf("s%d", i), srv: eardbd.NewServer(eard.NewDB(), cfg)}
		}
		warm := rootOver(t, shards, dialer(shards))
		for step, b := range mixedScript() {
			deliver(t, daemon.Dial, b)
			deliver(t, warm.cfg.Fleet.DialFor(b.Node), b)
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

// beforeChanges dials srv as a build from before the changes kind
// served it, at the frame level: a changes query gets the error frame
// such a build sends for a kind it does not know, and every other query
// what srv answers.
func beforeChanges(srv *eardbd.Server) (net.Conn, error) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		for {
			f, err := wire.ReadFrame(server, 0)
			if err != nil {
				return
			}
			q, err := f.AsQuery()
			if err == nil && q.Kind == wire.QueryChanges {
				err = fmt.Errorf("unknown query kind %q", q.Kind)
			}
			reply := wire.Frame{Type: wire.TypeResult}
			if err == nil {
				reply.Payload, err = eardbd.Answer(nil, srv, nil, q)
			}
			if err != nil {
				reply = wire.Frame{Type: wire.TypeError, Payload: wire.AppendError(nil, err.Error())}
			}
			if wire.WriteFrame(server, reply, 0) != nil {
				return
			}
		}
	}()
	return client, nil
}

// TestRootRefusesShardsBeforeChanges: a root learns what a shard holds
// only from the changes kind, so shards are upgraded before the roots
// above them. A root over shards built before the kind fails every view
// with an error that names the shard and the kind, counts each such leg
// failed, and publishes nothing; the kinds those shards know still
// reach them.
func TestRootRefusesShardsBeforeChanges(t *testing.T) {
	shards := make([]shardFixture, 2)
	names := make([]string, len(shards))
	for i := range shards {
		names[i] = fmt.Sprintf("s%d", i)
		shards[i] = shardFixture{name: names[i], srv: eardbd.NewServer(eard.NewDB(), eardbd.Config{})}
		t.Cleanup(func() { _ = shards[i].srv.Close() })
	}
	writers, err := NewFleet(names, dialer(shards))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range mixedScript() {
		deliver(t, writers.DialFor(b.Node), b)
	}
	fleet, err := NewFleet(names, func(name string) (net.Conn, error) {
		return beforeChanges(shards[slices.Index(names, name)].srv)
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := telemetry.NewSet()
	root, err := NewRoot(Config{Fleet: fleet, Telemetry: ts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = root.Close() })
	for range 2 {
		_, err := root.Aggregate()
		if err == nil || !strings.Contains(err.Error(), "shard s0") || !strings.Contains(err.Error(), `unknown query kind "changes"`) {
			t.Fatalf("a view over shards before the changes kind: err = %v, want shard s0's refusal of the kind", err)
		}
	}
	if root.cache.Load() != nil {
		t.Error("a refused view was published")
	}
	for _, name := range names {
		ok := series(t, ts, metricFedFanout+`{shard="`+name+`",result="ok"}`)
		failed := series(t, ts, metricFedFanout+`{shard="`+name+`",result="error"}`)
		if ok != 2 || failed != 2 {
			t.Errorf("shard %s: %v legs ok and %v failed, want a poll ok and a refusal failed a view, twice", name, ok, failed)
		}
	}
	if st, err := root.MergedStats(); err != nil || st.Batches != len(mixedScript()) {
		t.Errorf("the ingest counters through the root: %+v, %v; want every batch counted", st, err)
	}
}

// limitedFleet is two shards' state — nodes × 4 node reports, a window
// each, every node's power — that root serves from fresh servers at any
// frame limit.
type limitedFleet struct {
	db    [2]*eard.DB
	sv    [2]eardbd.Saved
	fleet *Fleet
}

// newLimitedFleet delivers nodes nodes' batches to two default shards
// through their ring and keeps what the shards then hold.
func newLimitedFleet(t *testing.T, nodes int) *limitedFleet {
	t.Helper()
	shards, root := buildFederation(t, 0, 2)
	t.Cleanup(func() { _ = root.Close() })
	for i := 0; i < nodes; i++ {
		node := fmt.Sprintf("n%03d", i)
		var recs []eard.JobRecord
		for j := 0; j < 4; j++ {
			recs = append(recs, report(node, fmt.Sprintf("job%d", j), "0", 250+float64(j)))
		}
		deliver(t, root.cfg.Fleet.DialFor(node), wire.Batch{ID: node + "/1", Node: node, Records: recs,
			Acct: []accounting.Record{window(node, "job0", 0, 30000+float64(i))}})
	}
	lf := &limitedFleet{fleet: root.cfg.Fleet}
	for i, sh := range shards {
		lf.db[i], lf.sv[i] = sh.srv.DB(), sh.srv.Saved()
	}
	return lf
}

// root serves the state from two servers whose frame limit is limit (0:
// the default), counting into ts, and returns a root over them with the
// same limit.
func (lf *limitedFleet) root(t *testing.T, limit int, ts *telemetry.Set) (*Root, []shardFixture) {
	t.Helper()
	shards := make([]shardFixture, 2)
	for i := range shards {
		srv := eardbd.NewServer(lf.db[i], eardbd.Config{MaxFramePayload: limit, Telemetry: ts})
		if err := srv.Restore(lf.sv[i]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		shards[i] = shardFixture{name: fmt.Sprintf("s%d", i), srv: srv}
	}
	fleet, err := NewFleet([]string{"s0", "s1"}, dialer(shards))
	if err != nil {
		t.Fatal(err)
	}
	root, err := NewRoot(Config{Fleet: fleet, MaxFramePayload: limit, Telemetry: ts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = root.Close() })
	return root, shards
}

// wholeView is the payload bytes of a shard's whole view, built with
// no frame limit to cut it.
func wholeView(t *testing.T, srv *eardbd.Server) int {
	t.Helper()
	var out countingSink
	c := wire.Conn{MaxPayload: 1 << 30}
	c.Reset(&out)
	image, err := eardbd.Answer(&c, srv, nil, wire.Query{Kind: wire.QueryChanges})
	if err != nil {
		t.Fatal(err)
	}
	return c.Streamed() + len(image) - wire.HeaderRoom
}

// countingSink is a transport that counts what is written and reads
// nothing.
type countingSink struct{ n int }

func (s *countingSink) Write(p []byte) (int, error) { s.n += len(p); return len(p), nil }
func (*countingSink) Read([]byte) (int, error)      { return 0, io.EOF }

// sameView reports whether two views hold the same records, accounting
// records and powers, in the same order.
func sameView(a, b eardbd.View) bool {
	return reflect.DeepEqual(a.DB.Records(), b.DB.Records()) &&
		reflect.DeepEqual(a.Acct.Snapshot(), b.Acct.Snapshot()) &&
		reflect.DeepEqual(a.Powers, b.Powers)
}

// TestWholeViewOverFrameLimit: a shard's whole view four times the
// frame limit it shares with its root is served: it streams in frames
// under the limit, and the root's view is the one a root and shards with
// the default limit build, each view in one frame. The generation poll
// and the view take a poll and one answer a shard, none of them failed.
func TestWholeViewOverFrameLimit(t *testing.T) {
	const limit = 2 << 10
	lf := newLimitedFleet(t, 100)
	ref, _ := lf.root(t, 0, nil)
	want, err := ref.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := telemetry.NewSet()
	root, shards := lf.root(t, limit, ts)
	if whole := wholeView(t, shards[0].srv); whole <= 4*limit {
		t.Fatalf("shard s0's whole view is %d bytes, want more than 4 × %d", whole, limit)
	}
	got, err := root.View(nil)
	if err != nil {
		t.Fatalf("a view four times the frame limit: %v", err)
	}
	if !sameView(got, want) {
		t.Error("the view streamed under the limit differs from the one-frame view")
	}
	for _, sh := range shards {
		if ok, failed := series(t, ts, metricFedFanout+`{shard="`+sh.name+`",result="ok"}`), series(t, ts, metricFedFanout+`{shard="`+sh.name+`",result="error"}`); ok != 2 || failed != 0 {
			t.Errorf("shard %s: %v legs ok and %v failed, want a poll and an answer ok", sh.name, ok, failed)
		}
	}
	if st := root.Stats(); st.Redials != 0 || st.Dials != 2 {
		t.Errorf("stats = %+v: want one dial a shard, its connection reused for the answer", st)
	}
}

// TestOversizedAnswerRefused: an answer of a one-frame kind — here the
// job summaries of a shard and of a root — past the frame limit is
// refused with an error frame that names the size and the limit, over a
// connection that stays in step, and each refusal is counted on
// goear_eardbd_replies_refused_total by kind and recorded as an
// eardbd.refused event naming the kind, the size and the limit.
func TestOversizedAnswerRefused(t *testing.T) {
	const limit = 2 << 10
	lf := newLimitedFleet(t, 40)
	for _, sh := range []int{0, 1} {
		for j := 0; j < 40; j++ { // job summaries past the limit on every shard
			if err := lf.db[sh].Insert(report(fmt.Sprintf("x%d", sh), fmt.Sprintf("extra-job-%03d", j), "0", 200)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts := telemetry.NewSet()
	root, shards := lf.root(t, limit, ts)
	for _, server := range []struct {
		name string
		dial func() (net.Conn, error)
	}{{"shard s0", shards[0].srv.Dial}, {"root", root.Dial}} {
		conn, err := server.dial()
		if err != nil {
			t.Fatal(err)
		}
		_, err = eardbd.Query(conn, wire.Query{Kind: wire.QueryJobs}, limit)
		if !errors.Is(err, eardbd.ErrServer) || !strings.Contains(err.Error(), fmt.Sprintf("limit %d", limit)) {
			t.Fatalf("%s: jobs past the limit: err = %v, want a refusal naming the limit of %d", server.name, err, limit)
		}
		if _, err := eardbd.Query(conn, wire.Query{Kind: wire.QueryGeneration}, limit); err != nil {
			t.Errorf("%s: the connection after a refusal: %v", server.name, err)
		}
		_ = conn.Close()
	}
	if got := series(t, ts, `goear_eardbd_replies_refused_total{kind="jobs"}`); got != 2 {
		t.Errorf("%v jobs answers counted refused, want 2: the shard's and the root's", got)
	}
	refusals := 0
	for _, ev := range ts.Rec().Events() {
		if ev.Kind == "eardbd.refused" {
			refusals++
			if ev.Str["kind"] != wire.QueryJobs || ev.Num["limit"] != limit || ev.Num["bytes"] <= limit {
				t.Errorf("refusal event %+v: want the kind, a size past the limit and the limit", ev)
			}
		}
	}
	if refusals != 2 {
		t.Errorf("%d refusal events, want 2", refusals)
	}
}

// TestOneRecordPastTheLimitRefused: a shard holding one record whose
// encoding alone is past the frame limit it shares with its root cannot
// cut its whole view there. It sends the frames before that record,
// refuses the rest with an error frame that names the size and the
// limit, counts the refusal, and keeps the connection. The root fails
// the view with that refusal, counts the leg failed, publishes nothing,
// and reuses the connection for the next view: no redial.
func TestOneRecordPastTheLimitRefused(t *testing.T) {
	const limit = 2 << 10
	lf := newLimitedFleet(t, 40)
	big := report("n000", "job0", "0", 250)
	big.App = strings.Repeat("x", limit)
	if err := lf.db[slices.Index(lf.fleet.Names(), lf.fleet.Owner("n000"))].Insert(big); err != nil {
		t.Fatal(err)
	}
	owner := lf.fleet.Owner("n000")
	ts := telemetry.NewSet()
	root, _ := lf.root(t, limit, ts)
	for i := 1; i <= 2; i++ {
		_, err := root.View(nil)
		if !errors.Is(err, eardbd.ErrServer) || !strings.Contains(err.Error(), fmt.Sprintf("limit %d", limit)) || !strings.Contains(err.Error(), "shard "+owner) {
			t.Fatalf("view %d: err = %v, want shard %s's refusal naming the limit of %d", i, err, owner, limit)
		}
		if got := series(t, ts, metricFedFanout+`{shard="`+owner+`",result="error"}`); got != float64(i) {
			t.Errorf("view %d: %v failed legs counted on %s, want %d", i, got, owner, i)
		}
		if got := series(t, ts, `goear_eardbd_replies_refused_total{kind="changes"}`); got != float64(i) {
			t.Errorf("view %d: %v changes answers counted refused, want %d", i, got, i)
		}
	}
	if st := root.Stats(); st.Redials != 0 {
		t.Errorf("two refused views cost %d redials, want 0: the connection fell out of step", st.Redials)
	}
	if root.cache.Load() != nil {
		t.Error("a view missing a shard was published")
	}
}

// frozen serves one view, as a root serves its cached one.
type frozen struct{ v eardbd.View }

func (f frozen) IngestStats(*trace.Active) (eardbd.Stats, error)   { return eardbd.Stats{}, nil }
func (f frozen) View(*trace.Active) (eardbd.View, error)           { return f.v, nil }
func (f frozen) Generation(*trace.Active) (wire.Generation, error) { return wire.Generation{}, nil }

// TestOldViewStaysWhileDeltaBuilds: readers of a published view walk
// its whole view, summaries and accounting pages while misses build
// the next views from clones of it — node reports replaced and added,
// accounting windows, powers moved. The old view reads the same bytes
// throughout; under -race, a clone writing anything it shares is a
// reported race as well.
func TestOldViewStaysWhileDeltaBuilds(t *testing.T) {
	shards, _ := buildFederation(t, 8, 4)
	fleet, err := NewFleet([]string{"s0", "s1", "s2", "s3"}, dialer(shards))
	if err != nil {
		t.Fatal(err)
	}
	ts := telemetry.NewSet()
	root, err := NewRoot(Config{Fleet: fleet, Telemetry: ts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = root.Close() })
	for i := 0; i < 8; i++ {
		node := fmt.Sprintf("n%02d", i)
		deliver(t, fleet.DialFor(node), wire.Batch{ID: node + "/acct", Node: node, Acct: []accounting.Record{window(node, "job0", 0, 30000)}})
	}
	old, err := root.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	render := func() []byte {
		var b bytes.Buffer
		for _, q := range []wire.Query{
			{Kind: wire.QueryChanges}, {Kind: wire.QueryJobs}, {Kind: wire.QuerySummary, Job: "job1", Step: "0"},
			{Kind: wire.QueryAcctJobs, Limit: 3}, {Kind: wire.QueryNodePowers},
		} {
			payload, err := eardbd.Answer(nil, frozen{old}, nil, q)
			fmt.Fprintf(&b, "%v %x\n", err, payload)
		}
		return b.Bytes()
	}
	want := render()
	stop := make(chan struct{})
	changed := make(chan []byte, 4)
	var readers sync.WaitGroup
	for range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := render(); !bytes.Equal(got, want) {
					changed <- got
					return
				}
			}
		}()
	}
	for i := 0; i < 24; i++ {
		node := fmt.Sprintf("n%02d", i%8)
		b := wire.Batch{ID: fmt.Sprintf("%s/late%d", node, i), Node: node}
		switch i % 4 {
		case 0: // a replace
			b.Records = []eard.JobRecord{report(node, "job0", "0", 300+float64(i))}
		case 1: // a new node in a group the old view holds
			node = fmt.Sprintf("m%02d", i)
			b.Records = []eard.JobRecord{report(node, "job1", "0", 260)}
		case 2: // a new group
			b.Records = []eard.JobRecord{report(node, fmt.Sprintf("late%d", i), "0", 260)}
		case 3:
			b.Acct = []accounting.Record{window(node, "job0", 1+i, 31000)}
		}
		deliver(t, fleet.DialFor(node), b)
		if _, err := root.View(nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	select {
	case got := <-changed:
		t.Fatalf("the old view read\n%s\nwhile the next ones were built, where it read\n%s", got, want)
	default:
	}
	if d := series(t, ts, metricFedRefolds+`{part="records",how="delta"}`); d != 18 {
		t.Errorf("%v of 18 node-report misses took in changes", d)
	}
}

// queryMixedFleet fills four shards in query-mixed's shape: nodes × 10
// node reports and windows accounting records a node, each sent to its
// ring owner. It returns the shards and a root over them that has not
// read yet.
func queryMixedFleet(tb testing.TB, nodes, windows int) ([]shardFixture, *Root) {
	shards, root := buildFederation(tb, nodes, 4)
	tb.Cleanup(func() { _ = root.Close() })
	for i := 0; i < nodes; i++ {
		node := fmt.Sprintf("n%02d", i)
		acct := make([]accounting.Record, windows)
		for j := range acct {
			acct[j] = window(node, fmt.Sprintf("job%d", j%3), j, 30000+float64(j))
		}
		deliver(tb, root.cfg.Fleet.DialFor(node), wire.Batch{ID: node + "/acct", Node: node, Acct: acct})
	}
	return shards, root
}

// missAfterWrite builds the miss query-mixed pays after each write:
// queryMixedFleet's shards, and a write that sends one node report —
// replacing a record and moving its node's power on one shard — then
// takes a view, which takes in that shard's changes and keeps the
// accounting store.
func missAfterWrite(tb testing.TB, nodes, windows int) (root *Root, write func(i int)) {
	_, root = queryMixedFleet(tb, nodes, windows)
	// Named apart from n00's own reporter, whose batch IDs the shard's
	// window still holds.
	writer, err := eardbd.NewClient(eardbd.ClientConfig{
		Node: "late-n00", Dial: root.cfg.Fleet.DialFor("n00"), Clock: eardbd.NewFakeClock(0), Jitter: rand.New(rand.NewSource(1)), BatchRecords: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = writer.Close() })
	return root, func(i int) {
		if err := writer.Enqueue(report("n00", "job0", "0", 300+float64(i%2))); err != nil {
			tb.Fatal(err)
		}
		if _, err := root.View(nil); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRootMissAfterWriteAllocations pins BenchmarkRootMissAfterWrite's
// allocation count: 8, the view alone — on the root, a clone of the
// node reports (database, store, chunk list), the one chunk the replace
// copies, the power list, the view and its key, and the reply's literal
// block. The write allocates nothing: the shard's connection decodes
// the batch into the literal block it keeps between frames (9 while
// every batch frame opened a block of its own). The shard walks its stores for the changes in the
// group order they keep, which a replace leaves standing; it sorted one
// per walk, 11 in all, until that order was kept. It was 45 when a miss
// folded every shard's dump into fresh stores, and 79 before that when
// every group's slot list and header was an allocation of its own.
func TestRootMissAfterWriteAllocations(t *testing.T) {
	root, write := missAfterWrite(t, 8, 10)
	i := 0
	if n := testing.AllocsPerRun(200, func() { i++; write(i) }); n != 8 {
		t.Errorf("a miss after one write: %v allocations, want 8", n)
	}
	if st := root.Stats(); st.CacheHits != 0 {
		t.Errorf("stats = %+v: a write did not move the view", st)
	}
}

// TestQueryMixedMissAllocations holds a miss after one write in
// query-mixed's shape — 200 nodes of 10 node reports and 8 accounting
// windows over four shards — to what the write changed: the same 8
// allocations as at 8 nodes, and at most 32 KB, where folding every
// shard's dump took 112 allocations and 563 KB.
func TestQueryMixedMissAllocations(t *testing.T) {
	for _, nodes := range []int{8, 200} {
		root, write := missAfterWrite(t, nodes, 8)
		write(0)
		i := 0
		if n := testing.AllocsPerRun(50, func() { i++; write(i) }); n != 8 {
			t.Errorf("%d nodes: a miss after one write: %v allocations, want 8", nodes, n)
		}
		const runs = 50
		b := alloctest.Count(func() {
			for range runs {
				i++
				write(i)
			}
		}).Bytes / runs
		if nodes == 200 && b > 32<<10 {
			t.Errorf("%d nodes: a miss after one write: %d bytes, want at most 32 KiB", nodes, b)
		}
		if st := root.Stats(); st.CacheHits != 0 || st.FanoutErrors != 0 {
			t.Errorf("%d nodes: stats = %+v: a write did not move the view, or a leg failed", nodes, st)
		}
	}
}

// TestQueryMixedColdMissAllocations pins the cold miss every
// query-mixed trial pays: a fresh root's first view over
// queryMixedFleet(200, 8), without the root's construction. It dials
// the four shards, polls each, and asks each for its changes from zero
// — its whole view, streamed in frames that pass through both sides'
// kept buffers — into fresh stores: 8 legs, where folding the records,
// acct_records and node_powers dumps took 16, and 163 allocations where
// that took 210. A shard answers from its stores' rows in the group
// order they keep, through a typed appender: 175 while each answer
// sorted its node reports' groups and boxed itself, 166 while a whole
// view was one frame. The bytes fell from 1.22 MB to 0.83 MB with the
// stream: a one-frame view was allocated twice, as the shard's image
// and as the root's payload, where a streamed one costs each fresh
// root connection one kept read buffer.
func TestQueryMixedColdMissAllocations(t *testing.T) {
	shards, unread := queryMixedFleet(t, 200, 8)
	fleet := unread.cfg.Fleet
	// cold takes a fresh root's first view and returns what it cost,
	// once the root has closed and every shard has let go of its
	// connections, so the next run starts from the same state.
	cold := func(ts *telemetry.Set) alloctest.Allocs {
		t.Helper()
		root, err := NewRoot(Config{Fleet: fleet, Telemetry: ts})
		if err != nil {
			t.Fatal(err)
		}
		a := alloctest.Count(func() { _, err = root.View(nil) })
		if err != nil {
			t.Fatal(err)
		}
		if err := root.Close(); err != nil {
			t.Fatal(err)
		}
		for _, sh := range shards {
			for sh.srv.Conns() > 0 {
				runtime.Gosched()
			}
		}
		return a
	}
	ts := telemetry.NewSet()
	cold(ts)
	legs := 0.0
	for _, sh := range shards {
		legs += series(t, ts, metricFedFanout+`{shard="`+sh.name+`",result="ok"}`)
	}
	if legs != 8 {
		t.Errorf("a cold miss over 4 shards took %v fan-out legs, want 8: a poll and a changes answer a shard", legs)
	}
	if alloctest.Race {
		return
	}
	// The least of 20: a run now and then pays a goroutine or two more,
	// when one of the last run's has not yet exited.
	least := alloctest.Least(20, func() alloctest.Allocs { return cold(nil) })
	if least.Mallocs != 163 {
		t.Errorf("a cold miss: %d allocations, want 163", least.Mallocs)
	}
	if least.Bytes > 1000<<10 {
		t.Errorf("a cold miss: %d bytes, want at most 1,000 KiB", least.Bytes)
	}
}

// adminLine is an admin's connection to a root as the root's frame
// loop sees it: the query frames to read, replayed from the start, and
// the answers written, counted.
type adminLine struct {
	in      bytes.Reader
	written int
}

func (a *adminLine) Read(p []byte) (int, error)  { return a.in.Read(p) }
func (a *adminLine) Write(p []byte) (int, error) { a.written += len(p); return len(p), nil }

// TestServedQueryAllocations: a query served on a warm admin connection
// over a warm root view — the frame read and decoded through the
// connection's literal state, answered (eardbd.Answer) and sent from
// the connection's image, as the root's frame loop serves it — allocates
// nothing, over queryMixedFleet(200, 8): an acct_jobs page resumed from
// a cursor, each one a new cursor cut from the connection's kept block
// and the next page's cursor appended straight into the frame, and the
// 200-node power list. A page decoded on its own cut a literal block of
// its own and rendered its next cursor as a string: 2 allocations.
func TestServedQueryAllocations(t *testing.T) {
	_, root := queryMixedFleet(t, 200, 8)
	v, err := root.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The query frames of a 50-record page walk past its first page.
	var walk [][]byte
	for q := (accounting.Query{Limit: 50}); ; {
		page, err := v.Acct.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if page.Next == "" {
			break
		}
		q.Cursor = page.Next
		walk = append(walk, queryFrame(t, wire.Query{Kind: wire.QueryAcctJobs, Limit: q.Limit, Cursor: q.Cursor}))
	}
	powers := queryFrame(t, wire.Query{Kind: wire.QueryNodePowers})
	if len(walk) < 30 {
		t.Fatalf("a walk of %d pages", len(walk))
	}
	var line adminLine
	var c wire.Conn
	c.Reset(&line)
	serve := func(frame []byte) {
		line.in.Reset(frame)
		f, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		q, err := c.DecodeQuery(f)
		if err != nil {
			t.Fatal(err)
		}
		image, err := eardbd.Answer(&c, root, nil, q)
		if err == nil {
			err = c.Send(wire.TypeResult, trace.Context{}, image)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, frame := range walk { // the buffers, the table and the block grow to the walk
		serve(frame)
	}
	serve(powers)
	i := 0
	if n := testing.AllocsPerRun(100, func() { serve(walk[i%len(walk)]); i++ }); n != 0 {
		t.Errorf("an acct_jobs page from a cursor, served warm: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { serve(powers) }); n != 0 {
		t.Errorf("node_powers, served warm: %v allocations, want 0", n)
	}
	if st := root.Stats(); st.CacheMisses != 1 || st.FanoutErrors != 0 {
		t.Errorf("stats = %+v, want the one miss that built the view", st)
	}
}

// queryFrame is q as one framed query, the bytes an admin sends.
func queryFrame(tb testing.TB, q wire.Query) []byte {
	f, err := wire.EncodeQuery(q)
	var b bytes.Buffer
	if err == nil {
		err = wire.WriteFrame(&b, f, 0)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// BenchmarkRootMissAfterWrite times missAfterWrite's write and view.
func BenchmarkRootMissAfterWrite(b *testing.B) {
	root, write := missAfterWrite(b, 8, 10)
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
