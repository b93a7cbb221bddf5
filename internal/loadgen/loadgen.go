package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/par"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
)

// Config parameterises a load run.
type Config struct {
	// Nodes is how many simulated node reporters to drive.
	Nodes int
	// RecordsPerNode is how many job records each node reports
	// (default 10), spread over jobs job0..job2 as in the canonical
	// closed-loop workload.
	RecordsPerNode int
	// AcctPerNode is how many per-job accounting windows each node
	// attributes and reports (default 0: no accounting traffic). Each
	// window hosts one to three tenants, so the record count per node
	// is larger; like Records, the content depends only on (Seed, node
	// index), never on placement.
	AcctPerNode int
	// BatchRecords is the client batch-size trigger (default 4).
	BatchRecords int
	// Workers bounds how many node reporters run concurrently
	// (default 8).
	Workers int
	// Seed derives every node's record stream and retry jitter;
	// record content depends only on (Seed, node index), never on
	// placement, so runs over different shard counts generate
	// byte-identical data.
	Seed int64
	// NodeName, when set, overrides the node naming scheme (default
	// NodeName). The closed-loop battery feeds its historical "n%02d"
	// names through this hook so the federated transcripts stay
	// comparable with the single-daemon golden.
	NodeName func(i int) string
	// Telemetry, when set, exposes the generator's progress as
	// goear_loadgen_* instruments. Nil makes every instrument a no-op.
	Telemetry *telemetry.Set
	// Trace, when set, is handed to every node client so each batch
	// renders its span tree into the shared buffer. Batch traces are
	// keyed by batch ID, so the buffer's canonical export is identical
	// whatever Workers is set to.
	Trace *trace.Buffer
	// RTTNow, when set, enables client-observed batch RTT measurement:
	// every acked batch's write-to-ack round trip is collected, and
	// RTTPercentiles summarises them. Leave nil in deterministic runs.
	RTTNow func() float64
}

func (c Config) withDefaults() Config {
	if c.RecordsPerNode == 0 {
		c.RecordsPerNode = 10
	}
	if c.BatchRecords == 0 {
		c.BatchRecords = 4
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	return c
}

// validate reports whether the configuration is usable.
func (c Config) validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("loadgen: need at least one node, got %d", c.Nodes)
	case c.RecordsPerNode < 1:
		return fmt.Errorf("loadgen: need at least one record per node")
	case c.BatchRecords < 1:
		return fmt.Errorf("loadgen: batch size must be positive")
	case c.Workers < 1:
		return fmt.Errorf("loadgen: worker count must be positive")
	}
	return nil
}

// Hooks lets a caller interleave fault injection with the load.
type Hooks struct {
	// AfterNode runs after node i's reporter has closed (on that
	// node's worker goroutine). Kill/Restart a cluster shard here to
	// fault mid-load.
	AfterNode func(i int)
}

// Result summarises a load run.
type Result struct {
	Nodes           int                `json:"nodes"`
	RecordsEnqueued int                `json:"records_enqueued"`
	NodeErrors      int                `json:"node_errors"`
	Client          eardbd.ClientStats `json:"client"`
	BacklogBatches  int                `json:"backlog_batches"`
}

// Generator drives simulated node reporters through real EARDBD
// clients. Every node gets its own client, memory journal, fake clock
// and seeded jitter stream: unreachable shards cost spills and
// replays, never wall-clock sleeps, so a 10k-node run with faults
// finishes in seconds and stays deterministic in content.
type Generator struct {
	cfg Config
	tel genTel

	mu       sync.Mutex
	journals map[string]*eardbd.Journal
	sum      eardbd.ClientStats
	enqueued int
	errs     int
	ran      int
	rtts     []float64 // client-observed batch RTTs, seconds
}

// recordRTT collects one acked batch's observed round trip.
func (g *Generator) recordRTT(sec float64) {
	g.mu.Lock()
	g.rtts = append(g.rtts, sec)
	g.mu.Unlock()
}

// RTTPercentiles summarises the collected batch round trips with
// nearest-rank percentiles: count, p50, p95, p99 in seconds. All
// zeros when RTT measurement was off or nothing was acked.
func (g *Generator) RTTPercentiles() (n int, p50, p95, p99 float64) {
	g.mu.Lock()
	samples := g.rtts // appends never touch the elements already there
	g.mu.Unlock()
	return Percentiles(samples)
}

// Percentiles summarises samples with nearest-rank p50/p95/p99; all
// zeros for no samples. The input is not modified.
func Percentiles(samples []float64) (n int, p50, p95, p99 float64) {
	if len(samples) == 0 {
		return 0, 0, 0, 0
	}
	samples = append([]float64(nil), samples...)
	sort.Float64s(samples)
	rank := func(q float64) float64 {
		i := int(q*float64(len(samples))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return samples[i]
	}
	return len(samples), rank(0.50), rank(0.95), rank(0.99)
}

// New builds a generator.
func New(cfg Config) (*Generator, error) {
	if err := cfg.withDefaults().validate(); err != nil {
		return nil, err
	}
	return &Generator{
		cfg:      cfg.withDefaults(),
		tel:      newGenTel(cfg.Telemetry),
		journals: map[string]*eardbd.Journal{},
	}, nil
}

// NodeName names node i; placement and record content key off it.
func NodeName(i int) string { return fmt.Sprintf("node%05d", i) }

func (g *Generator) nodeName(i int) string {
	if g.cfg.NodeName != nil {
		return g.cfg.NodeName(i)
	}
	return NodeName(i)
}

// Records generates node i's deterministic record stream: the
// canonical closed-loop workload shape (three jobs, per-node power in
// [250, 290) W) scaled to RecordsPerNode.
func (g *Generator) Records(i int) []eard.JobRecord {
	node := g.nodeName(i)
	rng := rand.New(rand.NewSource(g.cfg.Seed + int64(1000+i)))
	out := make([]eard.JobRecord, g.cfg.RecordsPerNode)
	for j := range out {
		power := 250 + 40*rng.Float64()
		out[j] = eard.JobRecord{
			JobID: fmt.Sprintf("job%d", j%3), StepID: fmt.Sprint(j / 3), Node: node,
			App: "BT-MZ.C", Policy: "min_energy",
			TimeSec: 120, EnergyJ: power * 120, AvgPower: power,
			AvgCPU: 2.1, AvgIMC: 2.4,
		}
	}
	return out
}

// acctUsers are the tenants accounting windows rotate through — the
// multi-tenant axis the query tier filters on.
var acctUsers = [...]string{"alice", "bob", "carol"}

// AcctRecords generates node i's deterministic accounting stream:
// AcctPerNode phase windows, each with one to three tenant jobs whose
// usage counters ratio-split the window's measured energy through the
// real attribution engine. Content depends only on (Seed, node index).
func (g *Generator) AcctRecords(i int) ([]accounting.Record, error) {
	if g.cfg.AcctPerNode <= 0 {
		return nil, nil
	}
	node := g.nodeName(i)
	rng := rand.New(rand.NewSource(g.cfg.Seed + int64(5000000+i)))
	var out []accounting.Record
	for w := 0; w < g.cfg.AcctPerNode; w++ {
		pkg := 180 + 60*rng.Float64() // W-ish rates over a 120 s window
		dram := 25 + 10*rng.Float64()
		uncore := 30 + 15*rng.Float64()
		window := accounting.Window{
			Node:     node,
			Phase:    w,
			StartSec: 120 * float64(w),
			EndSec:   120 * float64(w+1),
		}
		energy := accounting.Energy{
			PkgJ:    pkg * 120,
			DramJ:   dram * 120,
			UncoreJ: uncore * 120,
			NodeJ:   (pkg + dram + 45) * 120,
		}
		nTenants := 1 + (i+w)%len(acctUsers)
		tenants := make([]accounting.Tenant, nTenants)
		for t := range tenants {
			tenants[t] = accounting.Tenant{
				Meta: accounting.Meta{
					JobID:  fmt.Sprintf("job%d", (w+t)%3),
					StepID: fmt.Sprint(t),
					User:   acctUsers[t],
					Policy: "min_energy",
				},
				Usage: accounting.Usage{
					Instr:     (1 + rng.Float64()) * 1e12,
					Cycles:    (1 + rng.Float64()) * 1e12,
					DRAMBytes: (1 + rng.Float64()) * 1e11,
				},
				Rates: accounting.Rates{AvgCPUGHz: 2.1, AvgIMCGHz: 2.4},
			}
		}
		recs, err := accounting.Attribute(window, energy, tenants)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// Run drives all nodes through the given per-node dialer under the
// worker pool. Unreachable shards are an expected outcome, not an
// error: affected batches spill to the node's journal and stay
// claimable by Drain. The returned error covers only harness
// failures (bad config, journal I/O), never delivery faults.
func (g *Generator) Run(dial func(node string) func() (net.Conn, error), hooks Hooks) (Result, error) {
	if dial == nil {
		return Result{}, fmt.Errorf("loadgen: Run needs a dialer")
	}
	err := par.ForEach(g.cfg.Workers, g.cfg.Nodes, func(i int) error {
		if err := g.runNode(i, dial); err != nil {
			return err
		}
		if hooks.AfterNode != nil {
			hooks.AfterNode(i)
		}
		return nil
	})
	g.tel.backlog.Set(float64(g.backlogLocked()))
	return g.result(), err
}

// clientFor builds one node's reporting client over its journal. The
// burst and the drain differ only in the jitter seed they mix into the
// workload seed.
func (g *Generator) clientFor(node string, dial func() (net.Conn, error), journal *eardbd.Journal, seed int64) (*eardbd.Client, error) {
	return eardbd.NewClient(eardbd.ClientConfig{
		Node:         node,
		Dial:         dial,
		Clock:        eardbd.NewFakeClock(0),
		Jitter:       rand.New(rand.NewSource(g.cfg.Seed ^ seed)),
		BatchRecords: g.cfg.BatchRecords,
		Journal:      journal,
		Telemetry:    g.cfg.Telemetry,
		Trace:        g.cfg.Trace,
		RTTNow:       g.cfg.RTTNow,
		OnBatchRTT:   g.recordRTT,
	})
}

func (g *Generator) runNode(i int, dial func(node string) func() (net.Conn, error)) error {
	node := g.nodeName(i)
	journal, err := eardbd.OpenJournal("") // memory-only
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.journals[node] = journal
	g.mu.Unlock()

	c, err := g.clientFor(node, dial(node), journal, int64(7919*i+1))
	if err != nil {
		return err
	}
	var nodeErr error
	enq := 0
	for _, r := range g.Records(i) {
		err := c.Enqueue(r)
		switch {
		case err == nil, errors.Is(err, eardbd.ErrUnreachable):
			// Unreachable is survivable: the flush journaled the
			// batch for a later replay.
			enq++
		default:
			nodeErr = err
		}
	}
	acct, err := g.AcctRecords(i)
	if err != nil && nodeErr == nil {
		nodeErr = err
	}
	for _, r := range acct {
		err := c.EnqueueAcct(r)
		switch {
		case err == nil, errors.Is(err, eardbd.ErrUnreachable):
			enq++
		default:
			nodeErr = err
		}
	}
	if err := c.Close(); err != nil && !errors.Is(err, eardbd.ErrUnreachable) && nodeErr == nil {
		nodeErr = err
	}

	g.mu.Lock()
	g.ran++
	g.enqueued += enq
	addClientStats(&g.sum, c.Stats())
	if journal.Len() == 0 {
		delete(g.journals, node)
	}
	if nodeErr != nil {
		g.errs++
	}
	g.mu.Unlock()
	g.tel.nodes.Inc()
	g.tel.records.Add(uint64(enq))
	if nodeErr != nil {
		g.tel.nodeErrors.Inc()
	}
	return nil
}

// Drain replays the spilled backlog: each pass rebuilds a client per
// backlogged node (resuming its batch sequence from the journal, as a
// restarted reporter process would) and flushes until the journal
// empties or maxPasses runs out. It returns the remaining backlog in
// batches.
func (g *Generator) Drain(dial func(node string) func() (net.Conn, error), maxPasses int) (int, error) {
	for pass := 0; pass < maxPasses; pass++ {
		g.mu.Lock()
		nodes := make([]string, 0, len(g.journals))
		for node := range g.journals {
			nodes = append(nodes, node)
		}
		g.mu.Unlock()
		if len(nodes) == 0 {
			break
		}
		sort.Strings(nodes)
		g.tel.drainPasses.Inc()
		progress := false
		for _, node := range nodes {
			g.mu.Lock()
			journal := g.journals[node]
			g.mu.Unlock()
			if journal == nil {
				continue
			}
			before := journal.Len()
			c, err := g.clientFor(node, dial(node), journal, hashNode(node))
			if err != nil {
				return g.backlog(), err
			}
			ferr := c.Flush()
			cerr := c.Close()
			if ferr != nil && !errors.Is(ferr, eardbd.ErrUnreachable) {
				return g.backlog(), ferr
			}
			if cerr != nil && !errors.Is(cerr, eardbd.ErrUnreachable) {
				return g.backlog(), cerr
			}
			g.mu.Lock()
			addClientStats(&g.sum, c.Stats())
			if journal.Len() == 0 {
				delete(g.journals, node)
			}
			if journal.Len() < before {
				progress = true
			}
			g.mu.Unlock()
		}
		g.tel.backlog.Set(float64(g.backlog()))
		if !progress {
			break
		}
	}
	return g.backlog(), nil
}

// backlog returns the spilled batches still awaiting drain.
func (g *Generator) backlog() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.backlogLocked()
}

func (g *Generator) backlogLocked() int {
	total := 0
	for _, j := range g.journals {
		total += j.Len()
	}
	return total
}

// Stats returns the summed client counters so far.
func (g *Generator) Stats() eardbd.ClientStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sum
}

func (g *Generator) result() Result {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Result{
		Nodes:           g.ran,
		RecordsEnqueued: g.enqueued,
		NodeErrors:      g.errs,
		Client:          g.sum,
		BacklogBatches:  g.backlogLocked(),
	}
}

// addClientStats accumulates b into a, field by field.
func addClientStats(a *eardbd.ClientStats, b eardbd.ClientStats) {
	a.Enqueued += b.Enqueued
	a.Flushes += b.Flushes
	a.BatchesSent += b.BatchesSent
	a.RecordsSent += b.RecordsSent
	a.Retries += b.Retries
	a.Redials += b.Redials
	a.BatchesSpilled += b.BatchesSpilled
	a.RecordsSpilled += b.RecordsSpilled
	a.BatchesReplayed += b.BatchesReplayed
	a.BatchesRejected += b.BatchesRejected
	a.RecordsDropped += b.RecordsDropped
}

// hashNode derives a stable per-node jitter seed for drain clients
// (FNV-1a over the name).
func hashNode(node string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= 1099511628211
	}
	return int64(h)
}
