package fed

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// shardFixture is one in-process shard, reached through its server's
// own Dial.
type shardFixture struct {
	name string
	srv  *eardbd.Server
}

// dialer is the fleet dial function over the fixtures: by name, through
// each server's own Dial.
func dialer(shards []shardFixture) func(name string) (net.Conn, error) {
	byName := map[string]*eardbd.Server{}
	for _, s := range shards {
		byName[s.name] = s.srv
	}
	return func(name string) (net.Conn, error) { return byName[name].Dial() }
}

// rootOver builds a root over the fixtures' names, reached through dial.
func rootOver(t testing.TB, shards []shardFixture, dial func(name string) (net.Conn, error)) *Root {
	t.Helper()
	names := make([]string, len(shards))
	for i, s := range shards {
		names[i] = s.name
	}
	fleet, err := NewFleet(names, dial)
	if err != nil {
		t.Fatal(err)
	}
	root, err := NewRoot(Config{Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// buildFederation routes the canonical workload (nodes × 10 records)
// through n shards by ring placement and returns the shards plus a
// root over them.
func buildFederation(t testing.TB, nodes, nShards int) ([]shardFixture, *Root) {
	t.Helper()
	shards := make([]shardFixture, nShards)
	for i := range shards {
		shards[i] = shardFixture{name: fmt.Sprintf("s%d", i), srv: eardbd.NewServer(eard.NewDB(), eardbd.Config{})}
	}
	root := rootOver(t, shards, dialer(shards))
	for i := 0; i < nodes; i++ {
		node := fmt.Sprintf("n%02d", i)
		c, err := eardbd.NewClient(eardbd.ClientConfig{
			Node:         node,
			Dial:         root.cfg.Fleet.DialFor(node),
			Clock:        eardbd.NewFakeClock(0),
			Jitter:       rand.New(rand.NewSource(int64(i))),
			BatchRecords: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		for j := 0; j < 10; j++ {
			power := 250 + 40*rng.Float64()
			r := eard.JobRecord{
				JobID: fmt.Sprintf("job%d", j%3), StepID: fmt.Sprint(j / 3), Node: node,
				App: "BT-MZ.C", Policy: "min_energy",
				TimeSec: 120, EnergyJ: power * 120, AvgPower: power,
				AvgCPU: 2.1, AvgIMC: 2.4,
			}
			if err := c.Enqueue(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return shards, root
}

// report is one node report of a job step at the given power.
func report(node, job, step string, power float64) eard.JobRecord {
	return eard.JobRecord{
		JobID: job, StepID: step, Node: node, App: "BT-MZ.C", Policy: "min_energy",
		TimeSec: 120, EnergyJ: 120 * power, AvgPower: power, AvgCPU: 2.1, AvgIMC: 2.4,
	}
}

// window is one accounting record of a job on a node.
func window(node, job string, phase int, nodeJ float64) accounting.Record {
	return accounting.Record{
		V: accounting.CodecVersion, JobID: job, StepID: "0", User: "alice", Node: node, Policy: "min_energy",
		Phase: phase, StartSec: 60 * float64(phase), EndSec: 60 * float64(phase+1),
		PkgJ: 0.6 * nodeJ, DramJ: 0.1 * nodeJ, UncoreJ: 0.1 * nodeJ, NodeJ: nodeJ, AvgCPUGHz: 2.1, AvgIMCGHz: 2.4,
	}
}

// deliver sends one batch over a fresh connection from dial and
// requires its ack.
func deliver(tb testing.TB, dial func() (net.Conn, error), b wire.Batch) {
	tb.Helper()
	conn, err := dial()
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	f, err := wire.EncodeBatch(b)
	if err == nil {
		err = wire.WriteFrame(conn, f, 0)
	}
	if err == nil {
		f, err = wire.ReadFrame(conn, 0)
	}
	if err != nil {
		tb.Fatal(err)
	}
	if !f.AcksBatch(b.ID) {
		tb.Fatalf("batch %s answered by a %s frame, not its ack", b.ID, f.Type)
	}
}

// series reads one sample of a telemetry set's rendered /metrics.
func series(tb testing.TB, ts *telemetry.Set, name string) float64 {
	tb.Helper()
	var b strings.Builder
	if err := ts.Reg().WritePrometheus(&b); err != nil {
		tb.Fatal(err)
	}
	samples, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range samples {
		if s.Name+s.Labels == name {
			return s.Value
		}
	}
	return 0
}

func TestRootMergesAcrossShardCounts(t *testing.T) {
	const nodes = 12
	var ref []byte
	for _, nShards := range []int{1, 2, 4} {
		_, root := buildFederation(t, nodes, nShards)
		agg, err := root.Aggregate()
		if err != nil {
			t.Fatal(err)
		}
		if agg.Nodes != nodes || agg.Records != nodes*10 {
			t.Fatalf("shards=%d aggregate = %+v", nShards, agg)
		}
		v, err := root.View(nil)
		if err != nil {
			t.Fatal(err)
		}
		nps, sums := v.Powers, v.DB.Summaries()
		blob, err := json.Marshal(struct {
			Agg  eardbd.Aggregate
			NPs  []wire.NodePower
			Sums []eard.JobSummary
		}{agg, nps, sums})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = blob
			continue
		}
		if string(blob) != string(ref) {
			t.Fatalf("shards=%d snapshot differs:\n--- want\n%s\n--- got\n%s", nShards, ref, blob)
		}
	}
}

func TestRootServesWireProtocol(t *testing.T) {
	_, root := buildFederation(t, 6, 2)
	conn, err := root.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := eardbd.Query(conn, wire.Query{Kind: wire.QueryAggregate}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var agg eardbd.Aggregate
	if err := res.Decode(&agg); err != nil {
		t.Fatal(err)
	}
	direct, err := root.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(agg, direct) {
		t.Fatalf("wire aggregate %+v != direct %+v", agg, direct)
	}

	// Stats through the root are the summed shard ingest counters.
	res, err = eardbd.Query(conn, wire.Query{Kind: wire.QueryStats}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var st eardbd.Stats
	if err := res.Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RecordsAccepted != 60 {
		t.Fatalf("merged stats = %+v, want 60 accepted", st)
	}

	// Batches are refused: the root is a read path.
	bf, err := wire.EncodeBatch(wire.Batch{ID: "x/1", Node: "x", Records: []eard.JobRecord{
		{JobID: "j", StepID: "0", Node: "x", TimeSec: 1, EnergyJ: 1, AvgPower: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	conn2, err := root.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.WriteFrame(conn2, bf, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadFrame(conn2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.TypeError {
		t.Fatalf("root answered %s to a batch, want error", resp.Type)
	}
}

func TestIslandSource(t *testing.T) {
	shards, root := buildFederation(t, 10, 2)
	totalViaIslands := 0.0
	nodesSeen := 0
	for _, s := range shards {
		src, err := root.IslandSource(s.name)
		if err != nil {
			t.Fatal(err)
		}
		powers := src.NodePowers()
		nodesSeen += len(powers)
		for _, p := range powers {
			totalViaIslands += p
		}
	}
	if nodesSeen != 10 {
		t.Fatalf("islands cover %d nodes, want 10", nodesSeen)
	}
	agg, err := root.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	// Same multiset of node powers; summation order differs across
	// islands, so compare within a float tolerance.
	if diff := totalViaIslands - agg.TotalPowerW; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("island power sum %g != aggregate %g", totalViaIslands, agg.TotalPowerW)
	}
	if _, err := root.IslandSource("nope"); err == nil {
		t.Fatal("IslandSource accepted an unknown shard")
	}
}

func TestRootConfigValidation(t *testing.T) {
	if _, err := NewRoot(Config{}); err == nil {
		t.Error("NewRoot accepted a config with no fleet")
	}
	for name, shards := range map[string][]string{
		"no shards":     nil,
		"unnamed shard": {""},
		"duplicate":     {"s1", "s1"},
	} {
		if _, err := NewFleet(shards, nil); err == nil {
			t.Errorf("%s: NewFleet accepted invalid shard names", name)
		}
	}
}

func TestUnreachableShardSurfacesError(t *testing.T) {
	good := eardbd.NewServer(eard.NewDB(), eardbd.Config{})
	fleet, err := NewFleet([]string{"s0", "s1"}, func(name string) (net.Conn, error) {
		if name == "s1" {
			return nil, fmt.Errorf("down")
		}
		return good.Dial()
	})
	if err != nil {
		t.Fatal(err)
	}
	root, err := NewRoot(Config{Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.Aggregate(); err == nil {
		t.Fatal("aggregate over a dead shard succeeded")
	}
	if got := root.NodePowers(); got != nil {
		t.Fatalf("NodePowers over a dead shard = %v, want nil", got)
	}
	st := root.Stats()
	if st.FanoutErrors == 0 {
		t.Fatalf("fan-out errors not counted: %+v", st)
	}
}

// TestFanOutQueriesShardsConcurrently pins the concurrent fan-out: a
// barrier in every shard's dial function releases only once all dials
// are in flight, so a root that queried shards one at a time would
// deadlock here. The merged view must still come out in shard order.
func TestFanOutQueriesShardsConcurrently(t *testing.T) {
	const n = 4
	var barrier sync.WaitGroup
	barrier.Add(n)
	shards, _ := buildFederation(t, 8, n)
	dial := dialer(shards)
	root := rootOver(t, shards, func(name string) (net.Conn, error) {
		barrier.Done()
		barrier.Wait()
		return dial(name)
	})

	type answer struct {
		nps []wire.NodePower
		err error
	}
	done := make(chan answer, 1)
	go func() {
		v, err := root.View(nil)
		done <- answer{v.Powers, err}
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatal(a.err)
		}
		// The concurrent fan-out must merge identically to the plain
		// sequential-dial root over the same shards.
		_, plain := buildFederation(t, 8, n)
		want, err := plain.View(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.nps, want.Powers) {
			t.Errorf("concurrent merge diverges:\n got %v\nwant %v", a.nps, want.Powers)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fan-out deadlocked: shard queries are not concurrent")
	}
}

// heldReplies wraps a fleet's connections so that, once armed, no
// reply reaches the root before every shard has received its query: a
// root that waited for shard i's reply before asking shard i+1 would
// wait forever.
type heldReplies struct {
	asked atomic.Pointer[sync.WaitGroup] // nil: disarmed
}

func (h *heldReplies) dial(dial func(string) (net.Conn, error)) func(string) (net.Conn, error) {
	return func(name string) (net.Conn, error) {
		conn, err := dial(name)
		if err != nil {
			return nil, err
		}
		return heldConn{conn, h}, nil
	}
}

type heldConn struct {
	net.Conn
	h *heldReplies
}

// Write returns once the shard has read the query (a pipe hands the
// bytes over), which is when it counts as received.
func (c heldConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if wg := c.h.asked.Load(); wg != nil {
		wg.Done()
	}
	return n, err
}

func (c heldConn) Read(p []byte) (int, error) {
	if wg := c.h.asked.Load(); wg != nil {
		wg.Wait()
	}
	return c.Conn.Read(p)
}

// TestFanOutOverlapsWarmRoundTrips pins the scatter before the gather
// on a warm root, whose fan-out dials nothing: every shard holds its
// reply until all of them have their query.
func TestFanOutOverlapsWarmRoundTrips(t *testing.T) {
	const n = 4
	shards, _ := buildFederation(t, 8, n)
	var held heldReplies
	root := rootOver(t, shards, held.dial(dialer(shards)))
	t.Cleanup(func() { _ = root.Close() })
	want, err := root.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	var asked sync.WaitGroup
	asked.Add(n) // one generation poll per shard: the view is cached
	held.asked.Store(&asked)
	done := make(chan error, 1)
	go func() {
		got, err := root.View(nil)
		if err == nil && !reflect.DeepEqual(got.Powers, want.Powers) {
			err = fmt.Errorf("warm read %v, cold read %v", got.Powers, want.Powers)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fan-out deadlocked: a reply was awaited before every shard was asked")
	}
	held.asked.Store(nil)
	if st := root.Stats(); st.Dials != n || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want the warm read served over the parked connections from cache", st)
	}
}

// TestWarmViewAllocations: a warm view over four shards — a generation
// poll on every parked connection, served, read and decoded into an
// array on the caller's stack, then a cache hit — allocates nothing,
// on either side.
func TestWarmViewAllocations(t *testing.T) {
	_, root := buildFederation(t, 8, 4)
	t.Cleanup(func() { _ = root.Close() })
	for i := 0; i < 2; i++ {
		if _, err := root.View(nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = root.View(nil) }); n != 0 {
		t.Errorf("a warm view over 4 shards allocates %v times, want 0", n)
	}
	if st := root.Stats(); st.CacheMisses != 1 || st.Dials != 4 || st.FanoutErrors != 0 {
		t.Errorf("stats = %+v, want one miss and one dial per shard", st)
	}
}

// BenchmarkRootWarmView is the read TestWarmViewAllocations counts.
func BenchmarkRootWarmView(b *testing.B) {
	_, root := buildFederation(b, 8, 4)
	b.Cleanup(func() { _ = root.Close() })
	if _, err := root.View(nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := root.View(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFanOutErrorPrecedence: two of four shards go down under a warm
// root. Every leg is read to its end — all four outcomes counted, the
// healthy legs' connections parked — and the error is the
// lowest-indexed leg's, whatever order the legs failed in.
func TestFanOutErrorPrecedence(t *testing.T) {
	shards, root := buildFederation(t, 8, 4)
	t.Cleanup(func() { _ = root.Close() })
	if _, err := root.View(nil); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{3, 1} {
		if err := shards[i].srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	_, err := root.View(nil)
	if err == nil || !strings.HasPrefix(err.Error(), "fed: shard s1: ") {
		t.Fatalf("view over two dead shards: %v, want shard s1's error", err)
	}
	if c := root.HealthCheck()(); c.Detail != "2/4 shards reachable" {
		t.Errorf("readiness = %+v, want 2/4 shards reachable", c)
	}
	if st := root.Stats(); st.FanoutErrors != 2 || st.Redials != 2 {
		t.Errorf("stats = %+v, want two failed legs, each after its one redial", st)
	}
	root.mu.Lock()
	defer root.mu.Unlock()
	for name, want := range map[string]int{"s0": 1, "s1": 0, "s2": 1, "s3": 0} {
		if n := len(root.idle[name]); n != want {
			t.Errorf("%s: %d connections parked, want %d", name, n, want)
		}
	}
}

// TestEmptyRestartServesNoStaleView: a shard that comes back without
// its state counts its generations from zero again and can reach the
// one the root cached before it went away. The redial that found it is
// in the root's cache key, so the root reads the shard as it is.
func TestEmptyRestartServesNoStaleView(t *testing.T) {
	var cur atomic.Pointer[eardbd.Server]
	cur.Store(eardbd.NewServer(eard.NewDB(), eardbd.Config{}))
	fleet, err := NewFleet([]string{"s0"}, func(string) (net.Conn, error) { return cur.Load().Dial() })
	if err != nil {
		t.Fatal(err)
	}
	root, err := NewRoot(Config{Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = root.Close() })
	report := func(node string, power float64) {
		t.Helper()
		for i := 0; i < 3; i++ {
			deliver(t, fleet.DialFor(node), wire.Batch{ID: fmt.Sprintf("%s/%d", node, i), Node: node, Records: []eard.JobRecord{{
				JobID: fmt.Sprint(i), StepID: "0", Node: node, TimeSec: 60, EnergyJ: 60 * power, AvgPower: power,
			}}})
		}
	}
	report("n1", 100)
	if agg, err := root.Aggregate(); err != nil || agg.Nodes != 1 || agg.TotalPowerW != 100 {
		t.Fatalf("before the restart: %+v, %v", agg, err)
	}
	if err := cur.Load().Close(); err != nil {
		t.Fatal(err)
	}
	cur.Store(eardbd.NewServer(eard.NewDB(), eardbd.Config{}))
	report("n2", 300)
	if gen, _ := cur.Load().Generation(nil); gen.Gen != 3 {
		t.Fatalf("the empty shard is at generation %d, want the cached 3", gen.Gen)
	}
	if agg, err := root.Aggregate(); err != nil || agg.Nodes != 1 || agg.TotalPowerW != 300 {
		t.Errorf("after an empty restart the root reads %+v (%v), want n2 alone at 300 W", agg, err)
	}
}

// TestDuplicateRedeliveryMovesCachedPowers pins the shard invariant the
// root's cached view rests on: whatever changes a shard's node_powers
// moves its generation. A node reports a newer record, then an older
// record is delivered again under a batch ID the window does not hold,
// as after it forgot the old one — every record a duplicate, nothing
// stored, yet the node's last reported power is the old record's
// again. A root whose cache was warm before the re-delivery and a cold
// one must both serve the shard's own view.
func TestDuplicateRedeliveryMovesCachedPowers(t *testing.T) {
	shard := shardFixture{name: "s0", srv: eardbd.NewServer(eard.NewDB(), eardbd.Config{})}
	send := func(id string, step string, power float64) {
		t.Helper()
		deliver(t, shard.srv.Dial, wire.Batch{ID: id, Node: "n00", Records: []eard.JobRecord{report("n00", "job0", step, power)}})
	}
	newRoot := func() *Root {
		root := rootOver(t, []shardFixture{shard}, dialer([]shardFixture{shard}))
		t.Cleanup(func() { _ = root.Close() })
		return root
	}

	send("n00/1", "0", 250)
	send("n00/2", "1", 300)
	warm := newRoot()
	if v, err := warm.View(nil); err != nil || len(v.Powers) != 1 || v.Powers[0].PowerW != 300 {
		t.Fatalf("before the re-delivery: %v, %v", v.Powers, err)
	}
	// n00/1's record again, under an ID the batch window does not hold.
	before := shard.srv.Stats()
	send("n00/3", "0", 250)
	if st := shard.srv.Stats(); st.RecordsDuplicate != before.RecordsDuplicate+1 || st.RecordsAccepted+st.RecordsReplaced != before.RecordsAccepted+before.RecordsReplaced {
		t.Fatalf("re-delivery moved the shard's counters from %+v to %+v, want one duplicate record", before, st)
	}

	own, _ := shard.srv.View(nil)
	if len(own.Powers) != 1 || own.Powers[0].PowerW != 250 {
		t.Fatalf("shard's own powers = %v, want the re-delivered 250 W", own.Powers)
	}
	for name, root := range map[string]*Root{"warm": warm, "cold": newRoot()} {
		v, err := root.View(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v.Powers, own.Powers) {
			t.Errorf("%s root serves %v, the shard itself %v", name, v.Powers, own.Powers)
		}
	}
	if st := warm.Stats(); st.CacheMisses != 2 {
		t.Errorf("warm root: %+v, want the re-delivery to cost a second miss", st)
	}
}

// replacer reports one node's four job steps over and over through one
// client and one kept connection: every flush is a 4-record batch under
// a fresh ID whose records replace the last one's, so the shard's
// stores stay the size they are and what a round trip allocates is what
// the path costs, not what the data does.
type replacer struct {
	client *eardbd.Client
	round  int
}

func newReplacer(tb testing.TB, srv *eardbd.Server, spans *trace.Buffer) *replacer {
	tb.Helper()
	c, err := eardbd.NewClient(eardbd.ClientConfig{
		Node: "n00", Dial: srv.Dial, Clock: eardbd.NewFakeClock(0), Jitter: rand.New(rand.NewSource(1)), BatchRecords: 4, Trace: spans,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	return &replacer{client: c}
}

func (r *replacer) roundTrip(tb testing.TB) {
	r.round++
	for step := 0; step < 4; step++ {
		err := r.client.Enqueue(eard.JobRecord{
			JobID: "job0", StepID: "0123"[step : step+1], Node: "n00", App: "BT-MZ.C", Policy: "min_energy",
			TimeSec: 120 + float64(r.round), EnergyJ: 36000, AvgPower: 300, AvgCPU: 2.1, AvgIMC: 2.4,
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// TestBatchRoundTripAllocations pins what the framed connections leave
// of a warm round trip, counted across every goroutine it touches. A
// batch — enqueue, encode, one write, the shard's read, decode, dedup,
// store, ack, the client's read — allocates what it keeps and nothing
// else: the block the shard cuts the batch's strings from (the ID
// among them, which the window keeps); the client cuts the ID from its
// own block. With span tracing on at both ends, the batch's seven
// spans add 17: an Active each, the copy the buffer stamps each, and
// three attribute lists. A generation poll over a parked
// root connection — checkout, query, serve, reply, decode, park — keeps
// nothing and allocates nothing, on either side.
func TestBatchRoundTripAllocations(t *testing.T) {
	var srv *eardbd.Server
	var r *replacer
	for _, c := range []struct {
		name   string
		spans  *trace.Buffer
		allocs float64
	}{
		{"traced", trace.NewBuffer(64), 18},
		{"untraced", nil, 1}, // the shard the polls below read
	} {
		srv = eardbd.NewServer(eard.NewDB(), eardbd.Config{Trace: c.spans})
		t.Cleanup(func() { _ = srv.Close() })
		r = newReplacer(t, srv, c.spans)
		for i := 0; i < 64; i++ {
			r.roundTrip(t) // grow every buffer, and the window's map past its next doubling
		}
		if n := testing.AllocsPerRun(100, func() { r.roundTrip(t) }); n != c.allocs {
			t.Errorf("%s: a warm 4-record batch round trip allocates %v times, want %v", c.name, n, c.allocs)
		}
		if c.spans != nil && c.spans.Len() == 0 {
			t.Errorf("%s: no span recorded", c.name)
		}
	}
	if st := srv.Stats(); st.Batches != 165 || st.RecordsAccepted != 4 || st.RecordsReplaced != 4*164 || r.client.Stats().Redials != 1 {
		t.Errorf("the batches did not replace over one connection: %+v, %d dials", st, r.client.Stats().Redials)
	}

	shard := shardFixture{name: "s0", srv: srv}
	root := rootOver(t, []shardFixture{shard}, dialer([]shardFixture{shard}))
	t.Cleanup(func() { _ = root.Close() })
	var g wire.Generation
	poll := func() {
		res, conn, err := root.queryShard("s0", wire.Query{Kind: wire.QueryGeneration})
		if err == nil {
			err = res.Decode(&g)
			root.park("s0", conn)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	poll()
	if n := testing.AllocsPerRun(100, poll); n != 0 {
		t.Errorf("a warm generation poll over a parked connection allocates %v times, want 0", n)
	}
	if st := root.Stats(); g.Gen != 165 || st.Dials != 1 || st.Fanouts != 102 {
		t.Errorf("generation %d after 165 batches; the polls did not share one connection: %+v", g.Gen, st)
	}
}

// BenchmarkBatchRoundTrip is the round trip TestBatchRoundTripAllocations
// counts: one client, one kept connection, 4-record batches that
// replace.
func BenchmarkBatchRoundTrip(b *testing.B) {
	srv := eardbd.NewServer(eard.NewDB(), eardbd.Config{})
	b.Cleanup(func() { _ = srv.Close() })
	r := newReplacer(b, srv, nil)
	r.roundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.roundTrip(b)
	}
}
