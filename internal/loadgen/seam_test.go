package loadgen

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"

	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
)

// faultConn kills its connection around the byte `left` written
// through it. The write that gets there is either cut at that byte — a
// torn frame — or, when lostReply is set, delivered whole (a frame is
// one write) and the connection dies the moment it is out: a batch the
// shard is still storing when the client starts to retry it, whose ack
// is lost.
type faultConn struct {
	net.Conn
	left      int
	lostReply bool
}

var errFault = errors.New("injected fault: connection killed")

func (c *faultConn) Write(p []byte) (int, error) {
	if len(p) < c.left {
		c.left -= len(p)
		return c.Conn.Write(p)
	}
	if c.lostReply {
		n, err := c.Conn.Write(p)
		_ = c.Conn.Close()
		return n, err // delivered: it is the read of the reply that fails
	}
	n := 0
	if c.left > 0 {
		n, _ = c.Conn.Write(p[:c.left])
	}
	_ = c.Conn.Close()
	return n, errFault
}

// faulty wraps a fleet dial function in a seeded fault plan: about half
// the connections to each shard are faultConns, with the byte count (in
// the first 256, so a small batch frame is reached too) and the kind of
// cut drawn from the seed. A reporter's client makes three attempts per
// flush, so a flush spills when three dials in a row are cut. Each shard draws from its own
// stream in the order it is dialled, so a run whose dials to any one
// shard are sequential — one reporter at a time, then one root reader —
// replays exactly from its seed.
func faulty(seed int64, names []string, dial func(string) (net.Conn, error)) func(string) (net.Conn, error) {
	var mu sync.Mutex
	plans := map[string]*rand.Rand{}
	for i, name := range names {
		plans[name] = rand.New(rand.NewSource(seed*int64(len(names)) + int64(i)))
	}
	return func(name string) (net.Conn, error) {
		conn, err := dial(name)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		rng := plans[name]
		if rng.Intn(2) == 0 {
			return conn, nil
		}
		return &faultConn{Conn: conn, left: rng.Intn(256), lostReply: rng.Intn(2) == 0}, nil
	}
}

// TestSeamSeededFaults uses the fleet's dial function as the seam it
// is: one wrapper puts a seeded fault plan between the shards and
// everything that reaches them — the reporters' bursts, their drains
// and a root's fan-out. Whatever the plan tears, every spilled batch is
// replayed, nothing is dropped, and the root reads the bytes the
// fault-free run reads.
//
// The faults here all produce an error on the faulted side. A stall —
// a peer that accepts and never answers — would hang this test: no
// connection has a deadline until ROADMAP B(3) adds them.
func TestSeamSeededFaults(t *testing.T) {
	const nodes, shards = 6, 3
	cfg := Config{Nodes: nodes, Workers: 1, Seed: 11, AcctPerNode: 1}
	clean, _, cleanRes := runLoad(t, nodes, shards, cfg, Hooks{})
	if cleanRes.BacklogBatches != 0 || cleanRes.NodeErrors != 0 {
		t.Fatalf("fault-free run: %+v", cleanRes)
	}
	cleanRoot, err := clean.Root()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanRoot.Close()
	want, err := Snapshot(cleanRoot)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg, err := cleanRoot.Aggregate()
	if err != nil {
		t.Fatal(err)
	}

	seeds := 1000
	if testing.Short() {
		seeds = 200
	}
	spilling, refanning := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		spilled, refanned, err := seamRun(cfg, shards, seed, want, wantAgg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if spilled > 0 {
			spilling++
		}
		if refanned > 0 {
			refanning++
		}
	}
	t.Logf("of %d seeds, %d made a reporter spill and %d made the root redial or fail a fan-out", seeds, spilling, refanning)
	// A root writes a few dozen bytes per connection, so fewer plans
	// reach it than reach the reporters.
	if spilling < seeds/4 || refanning < seeds/10 {
		t.Error("the fault plan barely bites")
	}
}

// seamRun drives one seed's fault plan and checks the outcome against
// the fault-free snapshot and aggregate. It returns how many batches
// the plan made the reporters spill and how many of the root's shard
// queries it made fail or go to a second dial.
func seamRun(cfg Config, shards int, seed int64, want []byte, wantAgg eardbd.Aggregate) (spilled, refanned int, err error) {
	cluster, err := NewCluster(shards, eardbd.Config{})
	if err != nil {
		return 0, 0, err
	}
	defer cluster.Close()
	fleet, err := fed.NewFleet(cluster.Fleet().Names(), faulty(seed, cluster.Fleet().Names(), cluster.dialShard))
	if err != nil {
		return 0, 0, err
	}
	g, err := New(cfg)
	if err != nil {
		return 0, 0, err
	}
	res, err := g.Run(fleet.DialFor, Hooks{})
	if err != nil {
		return 0, 0, err
	}
	// A drain pass that lands nothing ends the drain; under a plan that
	// keeps cutting, the next one gets further.
	for round := 0; g.backlog() > 0; round++ {
		if round == 64 {
			return 0, 0, errors.New("backlog never drained")
		}
		if _, err := g.Drain(fleet.DialFor, 5); err != nil {
			return 0, 0, err
		}
	}
	st := g.Stats()
	if st.BatchesSpilled != st.BatchesReplayed {
		return 0, 0, errors.New("spilled and replayed batch counts differ")
	}
	if st.RecordsDropped != 0 || st.BatchesRejected != 0 || res.NodeErrors != 0 {
		return 0, 0, errors.New("records were lost")
	}

	root, err := fed.NewRoot(fed.Config{Fleet: fleet})
	if err != nil {
		return 0, 0, err
	}
	defer root.Close()
	got, err := ask(func() ([]byte, error) { return Snapshot(root) })
	if err != nil {
		return 0, 0, err
	}
	agg, err := ask(root.Aggregate)
	if err != nil {
		return 0, 0, err
	}
	if math.Abs(agg.TotalEnergyJ-wantAgg.TotalEnergyJ) > 1e-9 {
		return 0, 0, errors.New("energy not conserved")
	}
	if string(got) != string(want) {
		return 0, 0, errors.New("snapshot differs from the fault-free run")
	}
	rs := root.Stats()
	return st.BatchesSpilled, rs.Redials + rs.FanoutErrors, nil
}

// ask repeats a root read until it comes through: the plan cuts the
// root's queries too, and a query that fails on a fresh dial is the
// answer the root gives.
func ask[T any](read func() (T, error)) (v T, err error) {
	for try := 0; try < 64; try++ {
		if v, err = read(); err == nil {
			break
		}
	}
	return v, err
}

// TestKillRacesDials: dials racing a Kill either fail or get a
// connection the Kill severs, and the Kill returns with nothing served.
func TestKillRacesDials(t *testing.T) {
	const dialers = 64
	cluster, err := NewCluster(1, eardbd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	conns := make([]net.Conn, dialers)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			conns[i], _ = cluster.dialShard("shard0")
		}(i)
	}
	close(start)
	if err := cluster.Kill("shard0"); err != nil {
		t.Fatal(err)
	}
	if n := cluster.Server("shard0").Conns(); n != 0 {
		t.Errorf("Kill returned with %d connections still served", n)
	}
	wg.Wait()
	if n := cluster.Server("shard0").Conns(); n != 0 {
		t.Errorf("%d connections were born on a dead shard", n)
	}
	for i, conn := range conns {
		if conn == nil {
			continue // refused
		}
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Errorf("dial %d outlived the Kill: its read succeeded", i)
		}
		conn.Close()
	}
}

// TestRestartDuringKill: a Restart racing a Kill is refused (it came
// first: the shard was still up) or waits the Kill out; either way the
// server that ends up serving holds everything the killed one did.
func TestRestartDuringKill(t *testing.T) {
	cluster, _, res := runLoad(t, 12, 1, Config{Workers: 2, AcctPerNode: 2}, Hooks{})
	if res.BacklogBatches != 0 {
		t.Fatalf("load: %+v", res)
	}
	defer cluster.Close()
	want := cluster.Server("shard0").Saved()
	if len(want.Powers) != 12 || len(want.Acct) == 0 {
		t.Fatalf("loaded shard holds %d powers, %d accounting records", len(want.Powers), len(want.Acct))
	}
	for round := 0; round < 50; round++ {
		// A held connection gives the Kill a handler to wait for.
		held, err := cluster.dialShard("shard0")
		if err != nil {
			t.Fatal(err)
		}
		restarted := make(chan error, 1)
		go func() { restarted <- cluster.Restart("shard0") }()
		if err := cluster.Kill("shard0"); err != nil {
			t.Fatal(err)
		}
		held.Close()
		if err := <-restarted; err != nil {
			// Refused: it ran before the Kill. The shard is down now.
			if err := cluster.Restart("shard0"); err != nil {
				t.Fatalf("round %d: restart after a refused one: %v", round, err)
			}
		}
		if got := cluster.Server("shard0").Saved(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: restarted shard holds %d powers and %d accounting records, want %d and %d",
				round, len(got.Powers), len(got.Acct), len(want.Powers), len(want.Acct))
		}
	}
}
