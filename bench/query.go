package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/fed"
	"goear/internal/loadgen"
	"goear/internal/wire"
)

// querySizes is the shape of query-mixed: a pre-loaded fleet and a
// script of ops operations in blocks of queryBlock.
type querySizes struct {
	nodes, recsPerNode, acctPerNode, shards int
	ops                                     int // per trial; a multiple of queryBlock
}

const (
	// queryBlock operations hold exactly one write and a fixed read mix,
	// so the cache hit ratio is a property of the script, not of timing.
	queryBlock = 50
	// writeAt is the write's slot in each block: mid-block, so a merged
	// read always follows it inside the same trial.
	writeAt   = 24
	pageLimit = 200
)

type opKind uint8

const (
	opAcctPage opKind = iota
	opNodePowers
	opAggregate
	opSummary
	opWrite
)

var opNames = [...]string{"query.acct_jobs", "query.node_powers", "query.aggregate", "query.summary", "write.batch"}

// blockMix is the read mix of one block: 70 % accounting pages, 20 %
// node powers, 10 % aggregate/summary.
var blockMix = [...]struct {
	kind opKind
	n    int
}{{opAcctPage, 34}, {opNodePowers, 10}, {opAggregate, 3}, {opSummary, 2}}

var acctUsers = [...]string{"alice", "bob", "carol"}

// writer is one node's late reporter: a persistent client whose batch
// sequence keeps advancing across trials, so every write is a fresh
// batch that replaces the node's record and moves a shard generation.
type writer struct {
	rec    eard.JobRecord
	client *eardbd.Client
}

// queryMixed is one admin client running a fixed read script through
// the federation root while a node reporter writes every 50th
// operation.
type queryMixed struct {
	seed int64
	sz   querySizes

	in      *fleetInput
	script  []opKind
	user0   int
	targets []int // node indices the writers report for
	cluster *loadgen.Cluster
	writers []writer

	refCluster *loadgen.Cluster
	refWriters []writer

	root    *fed.Root
	admin   *rootConn
	version int // bumped per trial; written records carry it

	rootStats fed.Stats
	writes    int
	opErr     error // first failed operation of the last trial
	sum       uint64
}

func (w *queryMixed) unit() string { return "query answered" }

func (w *queryMixed) describe() string {
	return fmt.Sprintf("nodes=%d records/node=%d acct_windows/node=%d shards=%d ops/trial=%d writes/trial=%d page_limit=%d clients=1",
		w.sz.nodes, w.sz.recsPerNode, w.sz.acctPerNode, w.sz.shards, w.sz.ops, w.sz.ops/queryBlock, pageLimit)
}

func (w *queryMixed) setup() error {
	if err := w.close(); err != nil {
		return err
	}
	in, err := genFleetInput(w.seed, w.sz.nodes, w.sz.recsPerNode, w.sz.acctPerNode)
	if err != nil {
		return err
	}
	w.in = in
	rng := rand.New(rand.NewSource(w.seed))
	w.user0 = rng.Intn(len(acctUsers))
	w.script = w.script[:0]
	for b := 0; b < w.sz.ops/queryBlock; b++ {
		var reads []opKind
		for _, m := range blockMix {
			for i := 0; i < m.n; i++ {
				reads = append(reads, m.kind)
			}
		}
		rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
		w.script = append(w.script, reads[:writeAt]...)
		w.script = append(w.script, opWrite)
		w.script = append(w.script, reads[writeAt:]...)
	}
	w.targets = rng.Perm(w.sz.nodes)[:w.sz.ops/queryBlock]
	if w.cluster, w.writers, err = w.loadFleet(w.sz.shards, clients); err != nil {
		return err
	}
	w.version = 0
	w.refCluster, w.refWriters = nil, nil
	return nil
}

// loadFleet builds a fleet, pre-loads it with the generated traffic
// and opens one writer per target node, each having reported version 0
// of its record.
func (w *queryMixed) loadFleet(shards, workers int) (*loadgen.Cluster, []writer, error) {
	c, err := newFleet(shards)
	if err != nil {
		return nil, nil, err
	}
	js, err := memJournals(w.sz.nodes)
	if err != nil {
		return nil, nil, err
	}
	res, err := w.in.send(c.DialFor, 64, workers, js, nil, 0)
	if err != nil {
		return nil, nil, err
	}
	if res.stats.RecordsSent != w.in.total {
		return nil, nil, fmt.Errorf("pre-load acked %d of %d records", res.stats.RecordsSent, w.in.total)
	}
	ws := make([]writer, len(w.targets))
	for k, i := range w.targets {
		node := w.in.names[i]
		j, err := eardbd.OpenJournal("")
		if err != nil {
			return nil, nil, err
		}
		// The reporter name differs from the node's so its batch IDs
		// cannot collide with the pre-load's "<node>/<seq>" IDs.
		cl, err := eardbd.NewClient(eardbd.ClientConfig{
			Node:            "late-" + node,
			Dial:            c.DialFor(node),
			Clock:           eardbd.NewFakeClock(0),
			Jitter:          rand.New(rand.NewSource(w.seed ^ int64(k+1))),
			BatchRecords:    1,
			MaxFramePayload: maxFrame,
			Journal:         j,
		})
		if err != nil {
			return nil, nil, err
		}
		ws[k] = writer{
			rec: eard.JobRecord{
				JobID: "joblate", StepID: fmt.Sprint(k), Node: node,
				App: "BT-MZ.C", Policy: "min_energy",
				TimeSec: 120, AvgCPU: 2.1, AvgIMC: 2.4,
			},
			client: cl,
		}
		if err := ws[k].write(0); err != nil {
			return nil, nil, err
		}
	}
	return c, ws, nil
}

// write reports the writer's record at the given version. With
// BatchRecords 1 the enqueue flushes and waits for the ack.
func (wr *writer) write(version int) error {
	r := wr.rec
	r.AvgPower = 260 + float64(version%32)
	r.EnergyJ = r.AvgPower * r.TimeSec
	return wr.client.Enqueue(r)
}

// prepare gives the trial a cold root (empty merge cache) served over
// a fresh pipe.
func (w *queryMixed) prepare() error {
	if err := w.closeRoot(); err != nil {
		return err
	}
	var err error
	if w.root, err = w.cluster.Root(); err != nil {
		return err
	}
	w.admin = dialRoot(w.root)
	w.version++
	return nil
}

// rootConn is an admin client's connection to a served root: what
// earctl dbd holds.
type rootConn struct {
	conn net.Conn
	done chan struct{}
}

// dialRoot serves root on one end of a pipe and returns the other.
func dialRoot(root *fed.Root) *rootConn {
	client, server := net.Pipe()
	c := &rootConn{conn: client, done: make(chan struct{})}
	go func() {
		root.ServeConn(server)
		close(c.done)
	}()
	return c
}

// query sends one query and decodes the reply into v.
func (c *rootConn) query(q wire.Query, v any) error {
	res, err := eardbd.Query(c.conn, q, maxFrame)
	if err != nil {
		return err
	}
	return res.Decode(v)
}

// close hangs up and waits for the serving goroutine.
func (c *rootConn) close() {
	_ = c.conn.Close() // ends ServeConn; a pipe has nothing to flush
	<-c.done
}

func (w *queryMixed) run(tr *tracer, parent int) (trialOut, error) {
	out := trialOut{latUS: make([]float64, 0, len(w.script))}
	user, cursor, nextWriter := w.user0, "", 0
	w.writes, w.opErr = 0, nil
	for _, op := range w.script {
		out.attempted++
		sp := tr.start(opNames[op], parent)
		t0 := time.Now()
		var err error
		switch op {
		case opWrite:
			err = w.writers[nextWriter].write(w.version)
			nextWriter++
			if err == nil {
				w.writes++
			}
		case opAcctPage:
			var page accounting.Page
			err = w.admin.query(wire.Query{Kind: wire.QueryAcctJobs, User: acctUsers[user], Limit: pageLimit, Cursor: cursor}, &page)
			if err == nil && len(page.Records) == 0 {
				err = fmt.Errorf("empty accounting page for %s", acctUsers[user])
			}
			if cursor = page.Next; cursor == "" {
				user = (user + 1) % len(acctUsers)
			}
		case opNodePowers:
			var nps []wire.NodePower
			err = w.admin.query(wire.Query{Kind: wire.QueryNodePowers}, &nps)
			if err == nil && len(nps) != w.sz.nodes {
				err = fmt.Errorf("node_powers lists %d of %d nodes", len(nps), w.sz.nodes)
			}
		case opAggregate:
			var agg eardbd.Aggregate
			err = w.admin.query(wire.Query{Kind: wire.QueryAggregate}, &agg)
			if err == nil && agg.Nodes != w.sz.nodes {
				err = fmt.Errorf("aggregate sees %d of %d nodes", agg.Nodes, w.sz.nodes)
			}
		case opSummary:
			var sum eard.JobSummary
			err = w.admin.query(wire.Query{Kind: wire.QuerySummary, Job: "job0", Step: "0"}, &sum)
		}
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		tr.end(sp)
		switch {
		case err != nil:
			out.failed++
			if w.opErr == nil {
				w.opErr = fmt.Errorf("%s: %w", opNames[op], err)
			}
		case op != opWrite:
			out.work++
			out.latUS = append(out.latUS, us)
		}
	}
	w.rootStats = w.root.Stats()
	return out, nil
}

// verify brings a single-shard reference fleet to the same written
// version and compares canonical snapshots.
func (w *queryMixed) verify() error {
	if w.opErr != nil {
		return w.opErr
	}
	if w.refCluster == nil {
		var err error
		if w.refCluster, w.refWriters, err = w.loadFleet(1, 1); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	for k := range w.refWriters {
		if err := w.refWriters[k].write(w.version); err != nil {
			return fmt.Errorf("reference write: %w", err)
		}
	}
	refRoot, err := w.refCluster.Root()
	if err != nil {
		return err
	}
	defer func() { _ = refRoot.Close() }()
	ref, err := loadgen.Snapshot(refRoot)
	if err != nil {
		return err
	}
	return compareSnapshot(w.root, ref, &w.sum)
}

func (w *queryMixed) digest() uint64 { return w.sum }

func (w *queryMixed) counts() map[string]float64 {
	out := map[string]float64{"client.batches": float64(w.writes)}
	addRootCounts(out, w.rootStats)
	return out
}

func (w *queryMixed) closeRoot() error {
	if w.admin != nil {
		w.admin.close()
		w.admin = nil
	}
	if w.root != nil {
		if err := w.root.Close(); err != nil {
			return err
		}
		w.root = nil
	}
	return nil
}

func closeWriters(ws []writer) {
	for _, wr := range ws {
		_ = wr.client.Close() // nothing pending: every write was acked
	}
}

func (w *queryMixed) close() error {
	if err := w.closeRoot(); err != nil {
		return err
	}
	closeWriters(w.writers)
	closeWriters(w.refWriters)
	w.writers, w.refWriters = nil, nil
	for _, c := range []*loadgen.Cluster{w.cluster, w.refCluster} {
		if c != nil {
			if err := c.Close(); err != nil {
				return err
			}
		}
	}
	w.cluster, w.refCluster = nil, nil
	return nil
}
