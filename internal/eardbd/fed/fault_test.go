package fed_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/loadgen"
	"goear/internal/telemetry"
	"goear/internal/wire"
)

// These tests hold the root's pooled shard connections to their
// contract under faults. They live outside package fed because the
// fleet with kill/restart is loadgen's, and loadgen imports fed.

const faultShards = 4

// loadedCluster is a four-shard fleet holding 40 nodes' traffic and
// serving nobody: the loader's clients have hung up by the time it
// returns, but a handler takes a scheduling round to notice, so the
// connection counts are waited down to zero before a test reads them.
func loadedCluster(t *testing.T, ts *telemetry.Set) *loadgen.Cluster {
	t.Helper()
	cluster, err := loadgen.NewCluster(faultShards, eardbd.Config{Telemetry: ts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	g, err := loadgen.New(loadgen.Config{Nodes: 40, Workers: 4, AcctPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := g.Run(cluster.DialFor, loadgen.Hooks{}); err != nil || res.NodeErrors != 0 || res.BacklogBatches != 0 {
		t.Fatalf("load: %+v, %v", res, err)
	}
	for _, name := range cluster.Fleet().Names() {
		waitConns(t, cluster, name, 0)
	}
	return cluster
}

func newRoot(t *testing.T, cluster *loadgen.Cluster) *fed.Root {
	t.Helper()
	root, err := cluster.Root()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = root.Close() })
	return root
}

// waitConns waits until shard serves at most max connections — a
// closed client end takes the handler a scheduling round to notice —
// and returns the count.
func waitConns(t *testing.T, cluster *loadgen.Cluster, shard string, max int) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := cluster.Server(shard).Conns()
		if n <= max {
			return n
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still serves %d connections, want at most %d", shard, n, max)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRestartedShardCostsOneRedial: a shard killed and restarted
// between two root queries leaves the root holding a dead connection.
// The second query must notice, redial exactly once, and answer what a
// fresh root answers.
func TestRestartedShardCostsOneRedial(t *testing.T) {
	ts := telemetry.NewSet()
	cluster := loadedCluster(t, ts)
	root := newRoot(t, cluster)
	if _, err := loadgen.Snapshot(root); err != nil {
		t.Fatal(err)
	}
	before := root.Stats()
	if before.Dials != faultShards || before.Redials != 0 {
		t.Fatalf("cold query: %+v, want one dial per shard and no redial", before)
	}

	if err := cluster.Kill("shard1"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Restart("shard1"); err != nil {
		t.Fatal(err)
	}
	got, err := loadgen.Snapshot(root)
	if err != nil {
		t.Fatalf("query after the restart: %v", err)
	}
	st := root.Stats()
	if st.Redials != 1 || st.Dials != before.Dials+1 || st.FanoutErrors != 0 {
		t.Fatalf("after the restart: %+v, want exactly one redial and no fan-out error", st)
	}
	want, err := loadgen.Snapshot(newRoot(t, cluster))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("snapshot over a redialled connection differs from a fresh root's")
	}

	var metrics strings.Builder
	if err := ts.Reg().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`goear_eardbd_fed_dials_total{shard="shard1",result="redial"} 1`,
		`goear_eardbd_fed_dials_total{shard="shard0",result="new"} 2`, // this root's and the fresh one's
	} {
		if !strings.Contains(metrics.String(), series+"\n") {
			t.Errorf("/metrics lacks %s", series)
		}
	}
	if !strings.Contains(metrics.String(), `goear_eardbd_fed_dials_total{shard="shard0",result="reused"}`) {
		t.Error("/metrics counts no reused connection")
	}
}

// TestRestartedShardServesNoStaleView: a root caches its merged view
// under the shard generations it polled. A restarted shard that counted
// its generations from scratch would, after enough fresh ingest, answer
// the very generation the root cached before the restart — and the root
// would serve the old view. Three batches for one node, a cached view,
// a kill and restart, two batches for another node: the root must read
// what a fresh root reads.
func TestRestartedShardServesNoStaleView(t *testing.T) {
	cluster, err := loadgen.NewCluster(1, eardbd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	report := func(node string, batches int, power float64) {
		t.Helper()
		c, err := eardbd.NewClient(eardbd.ClientConfig{
			Node: node, Dial: cluster.DialFor(node), Clock: eardbd.NewFakeClock(0), Jitter: rand.New(rand.NewSource(1)), BatchRecords: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batches; i++ {
			err := c.Enqueue(eard.JobRecord{JobID: fmt.Sprintf("job%d", i), StepID: "0", Node: node, TimeSec: 60, EnergyJ: 60 * power, AvgPower: power})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	root := newRoot(t, cluster)
	report("n1", 3, 100)
	if agg, err := root.Aggregate(); err != nil || agg.Nodes != 1 || agg.Records != 3 {
		t.Fatalf("before the restart: %+v, %v", agg, err)
	}
	if err := cluster.Kill("shard0"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Restart("shard0"); err != nil {
		t.Fatal(err)
	}
	report("n2", 2, 300)
	want, err := newRoot(t, cluster).Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if want.Nodes != 2 || want.Records != 5 || want.TotalPowerW != 400 {
		t.Fatalf("a fresh root reads %+v, want 2 nodes, 5 records, 400 W", want)
	}
	if got, err := root.Aggregate(); err != nil || got != want {
		t.Fatalf("the root that cached before the restart reads %+v (%v), a fresh root %+v", got, err, want)
	}
}

// TestDownShardStillSurfaces: a shard that stays down is a counted
// fan-out error and a degraded readiness check, pool or no pool.
func TestDownShardStillSurfaces(t *testing.T) {
	cluster := loadedCluster(t, nil)
	root := newRoot(t, cluster)
	if _, err := root.Aggregate(); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Kill("shard2"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Aggregate(); err == nil {
		t.Fatal("aggregate over a dead shard succeeded")
	}
	if st := root.Stats(); st.FanoutErrors != 1 || st.Redials != 1 {
		t.Fatalf("stats = %+v, want the one failed fan-out counted after its one redial", st)
	}
	if c := root.HealthCheck()(); c.OK || c.Detail != "3/4 shards reachable" {
		t.Fatalf("readiness = %+v, want 3/4 shards reachable", c)
	}
	// The shard comes back: the next query dials it afresh.
	if err := cluster.Restart("shard2"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Aggregate(); err != nil {
		t.Fatalf("aggregate after the shard returned: %v", err)
	}
	if c := root.HealthCheck()(); !c.OK {
		t.Fatalf("readiness = %+v after the shard returned", c)
	}
}

// TestConcurrentAdminsShareBoundedPool: eight admin connections
// reading at once get right answers, and afterwards no shard is left
// holding more than the idle bound.
func TestConcurrentAdminsShareBoundedPool(t *testing.T) {
	const admins, queries = 8, 200
	cluster := loadedCluster(t, nil)
	root := newRoot(t, cluster)
	mix := []wire.Query{
		{Kind: wire.QueryAcctJobs, User: "alice", Limit: 5},
		{Kind: wire.QueryNodePowers},
		{Kind: wire.QueryAggregate},
		{Kind: wire.QueryJobs},
		{Kind: wire.QueryStats},
	}
	want := make([][]byte, len(mix))
	ref := newRoot(t, cluster)
	for i, q := range mix[:len(mix)-1] { // stats count the queries themselves
		payload, err := eardbd.Answer(nil, ref, nil, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = payload[1:] // Result.Data: the payload past its kind byte
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for a := 0; a < admins; a++ {
		client, err := root.Dial()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			defer client.Close()
			for i := 0; i < queries; i++ {
				k := (a + i) % len(mix)
				res, err := eardbd.Query(client, mix[k], 0)
				if err != nil {
					t.Errorf("admin %d query %d (%s): %v", a, i, mix[k].Kind, err)
					return
				}
				if want[k] != nil && !bytes.Equal(res.Data, want[k]) {
					t.Errorf("admin %d query %d: %s reply differs from a lone root's", a, i, mix[k].Kind)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	if st := root.Stats(); st.FanoutErrors != 0 || st.Redials != 0 {
		t.Fatalf("stats = %+v, want no failed fan-out", st)
	}
	for _, name := range cluster.Fleet().Names() {
		if n := waitConns(t, cluster, name, fed.MaxIdlePerShard); n == 0 {
			t.Errorf("%s serves no connection: nothing was parked", name)
		}
	}
}

// TestPooledReplyOutlivesNoQuery: a shard's reply is its pooled
// connection's read buffer, and the next query over that connection
// reads into the same bytes — so a connection may go back to the pool
// only once its reply has been decoded. Eight readers at a time, 200
// snapshots each, share at most four parked connections per shard; a
// write lands between every burst, so the bursts begin with concurrent
// misses (dumps and power lists decoded out of the buffers) and go on
// with hits (generation polls). Every snapshot is the bytes a lone root
// reads serially after the same write. Were a connection parked before
// its reply was decoded, a reader would decode what another's query
// read over it: a snapshot differs, a decode fails, or the race
// detector names the two.
func TestPooledReplyOutlivesNoQuery(t *testing.T) {
	// reading is everything a root's view holds, as values: what
	// loadgen.Snapshot renders, without the rendering.
	type snapshot struct {
		agg    eardbd.Aggregate
		powers []wire.NodePower
		jobs   []eard.JobSummary
		acct   []accounting.Record
	}
	reading := func(root *fed.Root) (snapshot, error) {
		v, err := root.View(nil)
		if err != nil {
			return snapshot{}, err
		}
		return snapshot{v.Aggregate(), v.Powers, v.DB.Summaries(), v.Acct.Snapshot()}, nil
	}
	const readers, bursts, perBurst = 8, 20, 10 // 8 × 200 snapshots
	cluster := loadedCluster(t, nil)
	root, lone := newRoot(t, cluster), newRoot(t, cluster)
	node := loadgen.NodeName(3)
	writer, err := eardbd.NewClient(eardbd.ClientConfig{
		Node: node, Dial: cluster.DialFor(node), Clock: eardbd.NewFakeClock(0), Jitter: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	for burst := 0; burst < bursts; burst++ {
		err := writer.Enqueue(eard.JobRecord{
			JobID: fmt.Sprintf("late%d", burst), StepID: "0", Node: node, TimeSec: 60, EnergyJ: 60 * float64(200+burst), AvgPower: float64(200 + burst),
		})
		if err == nil {
			err = writer.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := reading(lone)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < perBurst; i++ {
					got, err := reading(root)
					if err != nil {
						t.Errorf("burst %d, reader %d, snapshot %d: %v", burst, r, i, err)
						return
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("burst %d, reader %d, snapshot %d differs from the serial one", burst, r, i)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	if st := root.Stats(); st.FanoutErrors != 0 || st.Redials != 0 || st.CacheMisses < bursts || st.CacheHits == 0 {
		t.Errorf("stats = %+v, want no failed fan-out, a miss after every write and hits between them", st)
	}
}

// TestCloseEmptiesPool: Close hangs up every parked connection, and a
// query that returns its connection afterwards finds the pool shut.
func TestCloseEmptiesPool(t *testing.T) {
	cluster := loadedCluster(t, nil)
	root := newRoot(t, cluster)
	if _, err := root.Aggregate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range cluster.Fleet().Names() {
		if n := cluster.Server(name).Conns(); n != 1 {
			t.Fatalf("%s serves %d connections after one query, want the parked one", name, n)
		}
	}
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range cluster.Fleet().Names() {
		waitConns(t, cluster, name, 0)
	}
	// The in-process accessors outlive Close; what they dial must not
	// be parked again.
	if _, err := root.Aggregate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range cluster.Fleet().Names() {
		waitConns(t, cluster, name, 0)
	}
	if err := root.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
