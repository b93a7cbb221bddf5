package loadgen

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/telemetry"
)

func runLoad(t *testing.T, nodes, shards int, cfg Config, hooks Hooks) (*Cluster, *Generator, Result) {
	t.Helper()
	cluster, err := NewCluster(shards, eardbd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nodes = nodes
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(cluster.DialFor, hooks)
	if err != nil {
		t.Fatal(err)
	}
	return cluster, g, res
}

func TestGeneratorDeliversEverything(t *testing.T) {
	const nodes = 50
	cluster, _, res := runLoad(t, nodes, 2, Config{Workers: 4}, Hooks{})
	if res.Nodes != nodes || res.RecordsEnqueued != nodes*10 || res.NodeErrors != 0 || res.BacklogBatches != 0 {
		t.Fatalf("result = %+v", res)
	}
	accepted := 0
	for _, name := range cluster.Fleet().Names() {
		accepted += cluster.Server(name).Stats().RecordsAccepted
	}
	if accepted != nodes*10 {
		t.Fatalf("shards accepted %d records, want %d", accepted, nodes*10)
	}
	if res.Client.RecordsSent != nodes*10 || res.Client.RecordsDropped != 0 {
		t.Fatalf("client stats = %+v", res.Client)
	}
}

func TestSnapshotByteIdenticalAcrossShardCounts(t *testing.T) {
	const nodes = 40
	var ref []byte
	for _, shards := range []int{1, 2, 4} {
		cluster, _, res := runLoad(t, nodes, shards, Config{Workers: 8}, Hooks{})
		if res.BacklogBatches != 0 || res.NodeErrors != 0 {
			t.Fatalf("shards=%d: result = %+v", shards, res)
		}
		root, err := cluster.Root()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := Snapshot(root)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = blob
			continue
		}
		if string(blob) != string(ref) {
			t.Fatalf("shards=%d: snapshot differs from single-shard run", shards)
		}
	}
}

// TestFaultInjectionReplaysExactlyOnce kills a shard mid-load and
// restarts it later: spilled batches must drain, every record must
// land exactly once, and the final federation snapshot must be
// byte-identical to a no-fault run.
func TestFaultInjectionReplaysExactlyOnce(t *testing.T) {
	const nodes, shards = 60, 3
	// Job accounting records ride the same batches, so the fault pass
	// proves their exactly-once delivery too.
	cfg := Config{Workers: 4, Seed: 7, AcctPerNode: 2}

	clean, _, cleanRes := runLoad(t, nodes, shards, cfg, Hooks{})
	if cleanRes.BacklogBatches != 0 {
		t.Fatalf("clean run left backlog: %+v", cleanRes)
	}
	cleanRoot, err := clean.Root()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Snapshot(cleanRoot)
	if err != nil {
		t.Fatal(err)
	}

	set := telemetry.NewSet()
	cfg.Telemetry = set
	cluster, err := NewCluster(shards, eardbd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Nodes: nodes, Workers: cfg.Workers, Seed: cfg.Seed, AcctPerNode: cfg.AcctPerNode, Telemetry: set})
	if err != nil {
		t.Fatal(err)
	}
	victim := cluster.Fleet().Names()[1]
	var done int64
	var killing, killDone, restarted atomic.Bool
	hooks := Hooks{AfterNode: func(i int) {
		n := atomic.AddInt64(&done, 1)
		if n >= 10 && killing.CompareAndSwap(false, true) {
			if err := cluster.Kill(victim); err != nil {
				t.Error(err)
			}
			killDone.Store(true)
		}
		if n >= 40 && killDone.Load() && restarted.CompareAndSwap(false, true) {
			if err := cluster.Restart(victim); err != nil {
				t.Error(err)
			}
		}
	}}
	res, err := g.Run(cluster.DialFor, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if !restarted.Load() {
		if err := cluster.Restart(victim); err != nil {
			t.Fatal(err)
		}
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
		t.Fatal("fault injected but nothing spilled; kill timing broken")
	}
	if st.BatchesSpilled != st.BatchesReplayed {
		t.Fatalf("spilled %d batches but replayed %d", st.BatchesSpilled, st.BatchesReplayed)
	}
	if st.RecordsDropped != 0 || res.NodeErrors != 0 {
		t.Fatalf("lost records: stats %+v result %+v", st, res)
	}

	root, err := cluster.Root()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Snapshot(root)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("faulted snapshot differs from no-fault run:\n--- want\n%s\n--- got\n%s", want, got)
	}

	var b strings.Builder
	if err := set.Reg().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, metric := range []string{
		"goear_loadgen_nodes_total " + fmt.Sprint(nodes),
		"goear_loadgen_journal_backlog_batches 0",
		"goear_eardbd_client_batches_spilled_total",
		"goear_eardbd_client_batches_replayed_total",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("telemetry missing %q", metric)
		}
	}
}

func TestClusterFaultAPIErrors(t *testing.T) {
	cluster, err := NewCluster(2, eardbd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Kill("nope"); err == nil {
		t.Error("killed an unknown shard")
	}
	if err := cluster.Restart("shard0"); err == nil {
		t.Error("restarted a live shard")
	}
	if err := cluster.Kill("shard0"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Kill("shard0"); err == nil {
		t.Error("killed a dead shard twice")
	}
	if _, err := cluster.dialShard("shard0"); err == nil {
		t.Error("dialed a dead shard")
	}
	if err := cluster.Restart("shard0"); err != nil {
		t.Fatal(err)
	}
	conn, err := cluster.dialShard("shard0")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := NewCluster(0, eardbd.Config{}); err == nil {
		t.Error("built an empty cluster")
	}
}

// TestFleetOverDialRoutesLikeCluster: a fleet built over a dial function
// of the caller's own — how earload reaches external daemons, and where
// a fault plan wraps — places every node exactly as the cluster does,
// because both hash the same member names, and a root over it reads the
// same aggregate.
func TestFleetOverDialRoutesLikeCluster(t *testing.T) {
	cluster, err := NewCluster(2, eardbd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dialled := map[string]int{}
	var mu sync.Mutex
	fleet, err := fed.NewFleet(cluster.Fleet().Names(), func(name string) (net.Conn, error) {
		mu.Lock()
		dialled[name]++
		mu.Unlock()
		return cluster.dialShard(name)
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Nodes: 20, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(fleet.DialFor, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BacklogBatches != 0 || res.Client.RecordsSent != 200 {
		t.Fatalf("result = %+v", res)
	}
	for i := 0; i < 20; i++ {
		if a, b := fleet.Owner(NodeName(i)), cluster.Fleet().Owner(NodeName(i)); a != b {
			t.Errorf("%s: the fleet places it on %s, the cluster on %s", NodeName(i), a, b)
		}
	}
	for _, name := range cluster.Fleet().Names() {
		if dialled[name] == 0 {
			t.Errorf("%s was never reached through the fleet's dial function", name)
		}
	}
	root, err := fed.NewRoot(fed.Config{Fleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	agg, err := root.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	own, err := cluster.Root()
	if err != nil {
		t.Fatal(err)
	}
	defer own.Close()
	want, err := own.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if agg != want || agg.Nodes != 20 || agg.Records != 200 {
		t.Fatalf("aggregate over the fleet = %+v, the cluster's own root reads %+v", agg, want)
	}
	if _, err := fed.NewFleet(nil, cluster.dialShard); err == nil {
		t.Error("built a fleet with no shards")
	}
}

func TestGeneratorValidation(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Nodes: -1},
		{Nodes: 1, RecordsPerNode: -1},
		{Nodes: 1, BatchRecords: -1},
		{Nodes: 1, Workers: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
	g, err := New(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(nil, Hooks{}); err == nil {
		t.Error("Run accepted a nil dialer")
	}
}

// TestDialShardAllocations: what one reporter connection costs the
// fleet beyond its traffic — a dial through the cluster to a live shard
// and the hang-up — is two allocations: the pipe and the closure its
// handler goroutine runs. The repo benchmark's ingest workloads dial
// once per 16 to 32 records, so one allocation more here is their whole
// allocs_per_work bound. Each dial waits for the last handler to
// return, as a second CPU lets it in the benchmark: a goroutine started
// while its predecessor still runs cannot reuse it, and costs one more.
func TestDialShardAllocations(t *testing.T) {
	cluster, err := NewCluster(4, eardbd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sh, err := cluster.shard("shard2")
	if err != nil {
		t.Fatal(err)
	}
	dial := func() {
		conn, err := cluster.dialShard("shard2")
		if err == nil {
			err = conn.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		for sh.srv.Conns() != 0 {
			runtime.Gosched()
		}
	}
	dial()
	if n := testing.AllocsPerRun(100, dial); n != 2 {
		t.Errorf("a dial and hang-up: %v allocations, want 2", n)
	}
}

// BenchmarkDialShard times the dial TestDialShardAllocations counts.
func BenchmarkDialShard(b *testing.B) {
	cluster, err := NewCluster(4, eardbd.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := cluster.dialShard("shard2")
		if err != nil {
			b.Fatal(err)
		}
		if err := conn.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
