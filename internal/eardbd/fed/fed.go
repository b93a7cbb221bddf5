// Package fed is the federation tier above sharded EARDBD daemons.
// EAR's production deployments run one EARDBD per island; the cluster
// view the global manager and the admin tools need is the union of
// what every island daemon aggregated. This package provides that
// union as a Root: a query-only service that fans snapshot queries out
// to the shards, merges the answers in node order, and serves the
// same wire snapshot API a single daemon does — so eargm.PowerSource
// consumers and `earctl dbd` work unchanged whether they talk to one
// daemon or a fleet.
//
// Merging is built for byte-identity, not just equivalence. Node
// powers merge by sorted node name, the exact order a single daemon
// sums in; job summaries are recomputed by folding every shard's
// record dump into a fresh eard.DB and running the same Summarize
// arithmetic over the same sorted records. A workload routed through
// N shards therefore renders the same aggregate, bit for bit, as the
// same workload through one daemon — the contract the closed-loop
// tests pin.
package fed

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/eardbd"
	"goear/internal/eardbd/ring"
	"goear/internal/par"
	"goear/internal/telemetry"
	"goear/internal/telemetry/trace"
	"goear/internal/wire"
)

// Fleet describes a shard fleet: the member daemons' names, the
// consistent-hash ring that places every node on exactly one of them,
// and the one function that opens a connection to a member. Reporters,
// a root's fan-out and admin tools all reach the shards through that
// function, so wrapping it puts a fault between every client and the
// fleet at once.
type Fleet struct {
	names []string
	ring  *ring.Ring
	dial  func(name string) (net.Conn, error)
}

// NewFleet describes the named shards, reached through dial — or over
// TCP with the names as addresses when dial is nil, the way the
// binaries reach external daemons. At least one shard is required;
// names must be unique and non-empty.
func NewFleet(names []string, dial func(name string) (net.Conn, error)) (*Fleet, error) {
	if len(names) == 0 {
		return nil, errors.New("fed: a fleet needs at least one shard")
	}
	rg, err := ring.NewWithMembers(0, names)
	if err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return &Fleet{names: append([]string(nil), names...), ring: rg, dial: dial}, nil
}

// Names returns the shard names in the order given, which is the order
// a root queries and merges them in.
func (f *Fleet) Names() []string { return append([]string(nil), f.names...) }

// Owner returns the shard a node's reports land on.
func (f *Fleet) Owner(node string) string {
	owner, _ := f.ring.Owner(node) // a ring with members owns every key
	return owner
}

// Dial opens a connection to one shard.
func (f *Fleet) Dial(name string) (net.Conn, error) { return f.dial(name) }

// DialFor returns a dial function routing one node to its ring owner.
func (f *Fleet) DialFor(node string) func() (net.Conn, error) {
	owner := f.Owner(node)
	return func() (net.Conn, error) { return f.dial(owner) }
}

// Config parameterises a federation root.
type Config struct {
	// Fleet is the shards the root serves the union of, queried in
	// Fleet.Names order.
	Fleet *Fleet
	// MaxFramePayload caps frame payloads on both the shard-facing and
	// serving sides (default wire.DefaultMaxPayload).
	MaxFramePayload int
	// Telemetry, when set, exposes fan-out activity as
	// goear_eardbd_fed_* families in that set; falls back to the
	// process-global set, and to no-ops when that is disabled too.
	Telemetry *telemetry.Set
	// Trace, when set, records a span tree per served query: a
	// fed.query root continuing the incoming frame's context, one
	// fed.fanout child per shard (created in configured shard order, so
	// the tree is identical whatever order the concurrent fan-out
	// finishes in), and a fed.merge child annotated with the snapshot
	// cache outcome. Nil disables tracing at zero cost.
	Trace *trace.Buffer
	// Now, when set, stamps span times and feeds the
	// goear_eardbd_fed_latency_seconds histograms. Nil leaves spans
	// untimed and observes no latencies; the span tree itself stays
	// fully deterministic.
	Now func() float64
}

// Stats counts root activity since construction.
type Stats struct {
	Queries      int `json:"queries"`       // snapshot queries served by the root
	Fanouts      int `json:"fanouts"`       // shard queries issued
	FanoutErrors int `json:"fanout_errors"` // shard queries that failed
	Dials        int `json:"dials"`         // shard connections opened (the other fan-outs reused a parked one)
	Redials      int `json:"redials"`       // of those, second attempts after a reused connection failed
	CacheHits    int `json:"cache_hits"`    // merged snapshots served from cache
	CacheMisses  int `json:"cache_misses"`  // merged snapshots rebuilt from shard dumps
}

// Root is the federation front end: an eardbd.Front — the listeners,
// frame loop and query switch a shard daemon serves with — over a
// Backend that fans out to the shards. It is safe for concurrent use.
// Every state query is answered from a generation-keyed cached view
// (see cache.go): a query costs one cheap generation poll per shard
// until ingest actually moves, instead of a full record dump.
type Root struct {
	eardbd.Front
	cfg Config
	ts  *telemetry.Set
	tel rootTel

	mu     sync.Mutex
	stats  Stats
	reach  map[string]bool         // last fan-out outcome per shard
	idle   map[string][]*shardConn // parked shard connections, most recently used last
	closed bool                    // Close has run: connections are closed, not parked

	cache atomic.Pointer[view]
}

// NewRoot builds a root over the given shards.
func NewRoot(cfg Config) (*Root, error) {
	if cfg.Fleet == nil {
		return nil, errors.New("fed: root needs a fleet")
	}
	if cfg.MaxFramePayload <= 0 {
		cfg.MaxFramePayload = wire.DefaultMaxPayload
	}
	ts := cfg.Telemetry
	if ts == nil {
		ts = telemetry.Default()
	}
	root := &Root{
		cfg:   cfg,
		ts:    ts,
		tel:   newRootTel(ts),
		reach: map[string]bool{},
		idle:  map[string][]*shardConn{},
	}
	root.Front = eardbd.Front{
		Backend:         root,
		Batch:           root.refuseBatch,
		Count:           root.count,
		MaxFramePayload: cfg.MaxFramePayload,
		Tracer:          trace.New("fedroot", cfg.Trace),
		QuerySpan:       spanFedQuery,
		Now:             cfg.Now,
		QueryLatency:    root.tel.latQuery,
		ReplyBytes:      eardbd.NewReplyBytes(ts),
	}
	root.tel.shards.Set(float64(len(cfg.Fleet.names)))
	return root, nil
}

// ShardsReachable reports how many shards answered their most recent
// fan-out query, out of the configured total. Shards not yet queried
// count as unreachable: a root that has never completed a fan-out is
// not ready.
func (r *Root) ShardsReachable() (ok, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.cfg.Fleet.names {
		if r.reach[name] {
			ok++
		}
	}
	return ok, len(r.cfg.Fleet.names)
}

// HealthCheck returns the root's readiness check for a telemetry
// Health set: OK when every shard answered its last fan-out.
func (r *Root) HealthCheck() telemetry.CheckFunc {
	return func() telemetry.Check {
		ok, total := r.ShardsReachable()
		return telemetry.Check{
			Name:   "shards",
			OK:     ok == total,
			Detail: fmt.Sprintf("%d/%d shards reachable", ok, total),
		}
	}
}

// Stats returns a snapshot of the root's activity counters.
func (r *Root) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// maxIdlePerShard bounds the connections parked per shard between
// queries. One serves a root with one reader (the eargm control period,
// one admin tool); four cover a few dashboards reading at once, and a
// busier moment dials the surplus and closes it afterwards.
const maxIdlePerShard = 4

// shardConn is one connection to a shard with its framing state: the
// image its queries are built in and the buffer its replies arrive in,
// kept with it while it is parked, so a warm poll allocates nothing on
// either side.
type shardConn struct {
	wire.Conn
	raw net.Conn
}

// queryShard runs one wire query against one shard, stamping tc on the
// query frame so the shard's server.query span joins the caller's
// trace. It prefers a connection parked by an earlier query. A reused
// connection may have gone stale since (the shard restarted, a peer
// timed it out), which the root cannot tell from a failing shard
// without asking again: queries are idempotent reads, so a failure on a
// reused connection is retried once on a fresh dial, and a failure on a
// fresh one is the answer.
//
// The result's body is the returned connection's read buffer. The
// caller decodes it and only then parks the connection: a parked
// connection's buffer belongs to the next query.
func (r *Root) queryShard(shard string, q wire.Query, tc trace.Context) (wire.Result, *shardConn, error) {
	t0 := r.Now.Sec()
	conn := r.checkOut(shard)
	reused := conn != nil
	res, conn, err := r.queryOn(shard, conn, q, tc)
	if err != nil && reused {
		r.dropIdle(shard)
		res, conn, err = r.queryOn(shard, nil, q, tc)
	}
	r.countReach(shard, err == nil)
	r.Now.Observe(r.tel.latFanout, t0)
	if err != nil {
		return wire.Result{}, nil, fmt.Errorf("fed: shard %s: %w", shard, err)
	}
	return res, conn, nil
}

// queryOn runs q over conn, dialling the shard first when conn is nil,
// and returns the connection after a complete reply; after anything
// else it is closed.
func (r *Root) queryOn(shard string, conn *shardConn, q wire.Query, tc trace.Context) (wire.Result, *shardConn, error) {
	if conn == nil {
		raw, err := r.cfg.Fleet.dial(shard)
		if err != nil {
			return wire.Result{}, nil, err
		}
		conn = &shardConn{Conn: wire.Conn{MaxPayload: r.cfg.MaxFramePayload}, raw: raw}
		conn.Reset(raw)
	}
	res, err := eardbd.QueryOn(&conn.Conn, q, tc)
	if err != nil {
		_ = conn.raw.Close() // the query's error is the one to report
		return wire.Result{}, nil, err
	}
	return res, conn, nil
}

// checkOut counts one fan-out and takes the shard's most recently
// parked connection, nil when there is none; the telemetry says which,
// and whether a dial is a first attempt or the retry.
func (r *Root) checkOut(shard string) *shardConn {
	var conn *shardConn
	how := dialNew
	r.mu.Lock()
	r.stats.Fanouts++
	if idle := r.idle[shard]; len(idle) > 0 {
		conn, r.idle[shard] = idle[len(idle)-1], idle[:len(idle)-1]
		how = dialReused
	} else {
		r.stats.Dials++
	}
	r.mu.Unlock()
	r.tel.dial(shard, how)
	return conn
}

// dropIdle counts a redial and closes everything parked for the shard:
// the connection that just failed was the youngest of them, so the
// rest have outlived the same event.
func (r *Root) dropIdle(shard string) {
	r.mu.Lock()
	r.stats.Dials++
	r.stats.Redials++
	stale := r.idle[shard]
	delete(r.idle, shard)
	r.mu.Unlock()
	r.tel.dial(shard, dialRedial)
	for _, c := range stale {
		_ = c.raw.Close() // already dead, by the reasoning above
	}
}

// park keeps conn, whose last reply the caller is done with, for the
// shard's next query, or closes it when the idle list is full or the
// root has been closed meanwhile.
func (r *Root) park(shard string, conn *shardConn) {
	r.mu.Lock()
	keep := !r.closed && len(r.idle[shard]) < maxIdlePerShard
	if keep {
		r.idle[shard] = append(r.idle[shard], conn)
	}
	r.mu.Unlock()
	if !keep {
		_ = conn.raw.Close() // surplus, fully read: nothing to lose
	}
}

// Close stops serving (the Front's listeners, connections and
// handlers) and then closes every parked shard connection; one a query
// still in flight returns later is closed on arrival.
func (r *Root) Close() error {
	err := r.Front.Close()
	r.mu.Lock()
	r.closed = true
	idle := r.idle
	r.idle = map[string][]*shardConn{}
	r.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			if cerr := c.raw.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}

// countReach folds one fan-out outcome into the stats, the telemetry
// counters and the reachability view the readiness probe reports.
func (r *Root) countReach(shard string, ok bool) {
	r.mu.Lock()
	r.reach[shard] = ok
	if !ok {
		r.stats.FanoutErrors++
	}
	r.mu.Unlock()
	r.tel.fanout(shard, ok)
}

// fanOutConcurrency bounds concurrent shard queries per fan-out. A
// snapshot's latency is the slowest shard's round trip, so querying
// islands concurrently matters once a fleet is wide or a WAN link is
// slow; eight in flight covers realistic island counts without
// letting one root stampede the fleet.
const fanOutConcurrency = 8

// fanOut runs one query against every shard and decodes each result
// into decode(i). Shard queries run concurrently under a bounded
// group, but results land in a slice keyed by shard index and are
// decoded sequentially in configured shard order — so the merged
// output stays byte-identical to a sequential fan-out, and decode
// callbacks never race. On error the lowest-indexed failure wins,
// matching what the sequential loop would have reported. A result is
// its connection's read buffer, so every connection stays checked out
// until the decoding is over and is parked then, whatever the outcome:
// its reply was read whole.
//
// When parent is live, each shard gets a fed.fanout child span. The
// children are all created here, in configured shard order, before
// any goroutine runs — span IDs come from a per-parent child counter,
// so allocation order (not completion order) is what must be
// deterministic for the trace to be byte-identical across runs.
func (r *Root) fanOut(parent *trace.Active, q wire.Query, decode func(i int, res wire.Result) error) error {
	shards := r.cfg.Fleet.names
	type leg struct {
		kid  *trace.Active
		res  wire.Result
		conn *shardConn
	}
	legs := make([]leg, len(shards))
	for i, shard := range shards {
		legs[i].kid = parent.Child(spanFedFanout, r.Now.Sec()).Attr("shard", shard)
	}
	defer func() {
		for i, l := range legs {
			if l.conn != nil {
				r.park(shards[i], l.conn)
			}
		}
	}()
	err := par.ForEach(fanOutConcurrency, len(shards), func(i int) error {
		l := &legs[i]
		res, conn, err := r.queryShard(shards[i], q, l.kid.Context())
		if err != nil {
			l.kid.Attr("result", "error").End(r.Now.Sec())
			return err
		}
		l.conn = conn
		if res.Kind != q.Kind {
			l.kid.Attr("result", "error").End(r.Now.Sec())
			return fmt.Errorf("fed: shard %s answered kind %q to %q", shards[i], res.Kind, q.Kind)
		}
		l.kid.Attr("result", "ok").End(r.Now.Sec())
		l.res = res
		return nil
	})
	if err != nil {
		return err
	}
	for i, shard := range shards {
		if err := decode(i, legs[i].res); err != nil {
			return fmt.Errorf("fed: shard %s: %w", shard, err)
		}
	}
	return nil
}

// IngestStats implements eardbd.Backend by summing the activity
// counters of every shard: the cluster's ingest totals. The root's own
// Stats stay separate.
func (r *Root) IngestStats(parent *trace.Active) (eardbd.Stats, error) {
	var total eardbd.Stats
	err := r.fanOut(parent, wire.Query{Kind: wire.QueryStats}, func(_ int, res wire.Result) error {
		var st eardbd.Stats
		if err := res.Decode(&st); err != nil {
			return err
		}
		total.Connections += st.Connections
		total.Batches += st.Batches
		total.DuplicateBatches += st.DuplicateBatches
		total.RecordsAccepted += st.RecordsAccepted
		total.RecordsDuplicate += st.RecordsDuplicate
		total.RecordsReplaced += st.RecordsReplaced
		total.AcctAccepted += st.AcctAccepted
		total.AcctDuplicate += st.AcctDuplicate
		total.AcctReplaced += st.AcctReplaced
		total.BatchesRejected += st.BatchesRejected
		total.ProtocolErrors += st.ProtocolErrors
		total.Queries += st.Queries
		return nil
	})
	if err != nil {
		return eardbd.Stats{}, err
	}
	return total, nil
}

// The in-process accessors below answer from the same Backend the wire
// queries do, outside any span: they trace nothing, only served frames
// do. Each is one view lookup.

// MergedStats returns the summed shard ingest counters.
func (r *Root) MergedStats() (eardbd.Stats, error) { return r.IngestStats(nil) }

// Aggregate returns the cluster view across every shard, with the
// arithmetic a single daemon uses (eardbd.View.Aggregate).
func (r *Root) Aggregate() (eardbd.Aggregate, error) {
	v, err := r.View(nil)
	if err != nil {
		return eardbd.Aggregate{}, err
	}
	return v.Aggregate(), nil
}

// PowersByName returns the last reported power of every node in the
// federation, sorted by node name. The list is the cached view's:
// read-only.
func (r *Root) PowersByName(parent *trace.Active) ([]wire.NodePower, error) {
	v, err := r.View(parent)
	return v.Powers, err
}

// State returns the folded node-report database and accounting store,
// both read-only.
func (r *Root) State(parent *trace.Active) (*eard.DB, *accounting.Store, error) {
	v, err := r.View(parent)
	return v.DB, v.Acct, err
}

// NodePowers implements eargm.PowerSource over the merged federation
// view. The PowerSource interface cannot carry an error; an
// unreachable shard yields an empty reading for this interval (and a
// counted fan-out error) rather than a partial cluster view that
// would ratchet the budget against half the fleet.
func (r *Root) NodePowers() []float64 {
	v, err := r.View(nil)
	if err != nil {
		return nil
	}
	return eardbd.Watts(v.Powers)
}

// AcctQuery serves one filtered, paginated job-accounting query over
// the merged federation view. Pages are byte-identical to what a
// single daemon holding the union of the shards would serve — the
// merged store's canonical order has no memory of which shard a
// record came from.
func (r *Root) AcctQuery(q accounting.Query) (accounting.Page, error) {
	v, err := r.View(nil)
	if err != nil {
		return accounting.Page{}, err
	}
	return v.Acct.Query(q)
}

// IslandSource returns an eargm.PowerSource view of one shard: the
// per-island feed a cascaded manager ratchets against. The returned
// source polls the shard on every read; an unreachable shard reads as
// empty, matching NodePowers' degradation.
func (r *Root) IslandSource(name string) (*IslandSource, error) {
	if !slices.Contains(r.cfg.Fleet.names, name) {
		return nil, fmt.Errorf("fed: no shard named %s", name)
	}
	return &IslandSource{root: r, shard: name}, nil
}

// IslandSource adapts one shard to eargm.PowerSource.
type IslandSource struct {
	root  *Root
	shard string
}

// NodePowers implements eargm.PowerSource for one island.
func (s *IslandSource) NodePowers() []float64 {
	res, conn, err := s.root.queryShard(s.shard, wire.Query{Kind: wire.QueryNodePowers}, trace.Context{})
	if err != nil {
		return nil
	}
	var nps []wire.NodePower
	err = res.Decode(&nps)
	s.root.park(s.shard, conn)
	if err != nil {
		return nil
	}
	return eardbd.Watts(nps)
}
